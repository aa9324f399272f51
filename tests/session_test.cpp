// Session coverage: the typed event/observer API, composable stop
// conditions (budgets + custom), and the determinism contract holding
// through them.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "campaign_equal.hpp"
#include "core/session.hpp"

namespace specure::core {
namespace {

CampaignSpec small_spec(std::uint64_t iterations, std::uint64_t seed,
                        std::size_t batch = 8) {
  CampaignSpec spec = CampaignSpec::preset("zenbleed");
  spec.rng_seed = seed;
  spec.batch_size = batch;
  spec.jobs = 1;
  spec.budget.iterations = iterations;
  return spec;
}

TEST(Session, InvalidSpecThrowsAtConstruction) {
  CampaignSpec spec;
  spec.batch_size = 0;
  EXPECT_THROW(Session{spec}, SpecError);
}

TEST(Session, EventsAreConsistentWithTheResult) {
  CampaignSpec spec = small_spec(120, 5);
  spec.progress_interval = 25;
  Session session(spec);

  std::vector<std::uint64_t> progress_iters;
  std::size_t coverage_events = 0;
  std::size_t lp_gain_from_events = 0;
  std::size_t vuln_events = 0;
  session.on_progress([&](const ProgressEvent& e) {
        EXPECT_EQ(e.budget_iterations, 120u);
        progress_iters.push_back(e.iteration);
      })
      .on_new_coverage([&](const CoverageEvent& e) {
        ++coverage_events;
        lp_gain_from_events += e.new_lp_channels;
        EXPECT_GT(e.new_lp_channels + e.new_coverage_points, 0u);
      })
      .on_vuln([&](const VulnEvent& e) {
        ++vuln_events;
        EXPECT_FALSE(e.report.sink_signal.empty());
        EXPECT_GT(e.iteration, 0u);
      });

  const CampaignResult result = session.run();
  ASSERT_EQ(result.history.size(), 120u);

  // Progress fired at the configured cadence, in order.
  ASSERT_GE(progress_iters.size(), 4u);
  for (std::size_t i = 0; i < progress_iters.size(); ++i) {
    EXPECT_EQ(progress_iters[i], 25u * (i + 1));
  }
  // One vuln event per distinct finding, and the coverage events account
  // for every LP channel the campaign covered.
  EXPECT_EQ(vuln_events, result.vulns.size());
  EXPECT_EQ(lp_gain_from_events, result.history.back().covered_pdlc);
  EXPECT_GT(coverage_events, 0u);
}

TEST(Session, ObserversDoNotPerturbTheCampaign) {
  Session bare(small_spec(96, 33, 16));
  Session observed(small_spec(96, 33, 16));
  std::size_t noise = 0;
  observed.on_new_coverage([&](const CoverageEvent&) { ++noise; })
      .on_vuln([&](const VulnEvent&) { ++noise; });
  expect_identical(bare.run(), observed.run());
  EXPECT_GT(noise, 0u);
}

TEST(Session, StateIntervalZeroWritesOnlyTheCompletedFrontier) {
  // `specure run --state-out F` with no interval: the sink sees the
  // completed frontier once, not one capture per merge boundary.
  for (const std::size_t jobs : {1u, 3u}) {
    CampaignSpec spec = small_spec(64, 9);
    spec.jobs = jobs;
    Session session(spec);
    std::vector<CampaignFrontier> fired;
    session.on_frontier(
        [&](const CampaignFrontier& f) { fired.push_back(f); },
        state_write_interval(spec.state_interval));
    const CampaignResult result = session.run();
    ASSERT_EQ(fired.size(), 1u) << "jobs " << jobs;
    EXPECT_TRUE(fired[0].completed);
    EXPECT_EQ(fired[0].merged, result.history.size());
  }
}

TEST(Session, DeterministicAcrossWorkerCounts) {
  CampaignSpec serial = small_spec(96, 33, 16);
  CampaignSpec parallel = small_spec(96, 33, 16);
  parallel.jobs = 4;
  expect_identical(Session(serial).run(), Session(parallel).run());
}

TEST(Session, CustomStopConditionsCompose) {
  // Two stops OR together: whichever triggers first ends the campaign.
  Session session(small_spec(1000, 22, 16));
  session.add_stop(Session::stop_after_iterations(7));
  session.add_stop(Session::stop_after_iterations(500));
  const CampaignResult result = session.run();
  EXPECT_EQ(result.history.size(), 7u);
}

TEST(Session, MaxVulnsBudgetStops) {
  CampaignSpec spec = small_spec(3500, 1, 1);
  spec.budget.max_vulns = 1;
  const CampaignResult result = Session(spec).run();
  // One merge can surface several distinct findings at once, so the
  // budget is a threshold, not an exact count.
  ASSERT_GE(result.vulns.size(), 1u);
  // Stopped at the discovering iteration, not the full budget.
  EXPECT_LT(result.history.size(), 3500u);
  for (const auto& [key, iteration] : result.first_detection) {
    EXPECT_EQ(iteration, result.history.size()) << key;
  }
}

TEST(Session, PlateauBudgetStopsAfterFlatCoverage) {
  CampaignSpec spec = small_spec(5000, 3, 16);
  spec.budget.plateau = 40;
  const CampaignResult result = Session(spec).run();
  ASSERT_LT(result.history.size(), 5000u);
  // The last `plateau` merged iterations produced no new LP coverage.
  const std::size_t n = result.history.size();
  const std::size_t final_lp = result.history[n - 1].covered_pdlc;
  EXPECT_EQ(result.history[n - 40].covered_pdlc, final_lp);
  EXPECT_GT(final_lp, 0u);
}

TEST(Session, PlateauIsDeterministic) {
  CampaignSpec spec = small_spec(5000, 3, 16);
  spec.budget.plateau = 40;
  const CampaignResult a = Session(spec).run();
  spec.jobs = 3;
  const CampaignResult b = Session(spec).run();
  expect_identical(a, b);
}

TEST(Session, WallClockBudgetStops) {
  CampaignSpec spec = small_spec(2000000, 9, 4);
  spec.budget.max_seconds = 0.05;
  const CampaignResult result = Session(spec).run();
  EXPECT_LT(result.history.size(), 2000000u);
  EXPECT_GE(result.seconds, 0.05);
}

TEST(Session, RepeatedRunsAreIndependentCampaigns) {
  Session session(small_spec(40, 11, 8));
  const CampaignResult first = session.run();
  const CampaignResult second = session.run();
  expect_identical(first, second);
}

TEST(Session, StopOnFindingHelper) {
  CampaignSpec spec = small_spec(3500, 1, 1);
  Session session(spec);
  session.add_stop(Session::stop_on_finding("core.rf."));
  const CampaignResult result = session.run();
  if (!result.vulns.empty()) {
    bool matched = false;
    for (const auto& [key, iter] : result.first_detection) {
      matched |= key.find("core.rf.") != std::string::npos;
    }
    EXPECT_TRUE(matched);
    EXPECT_LT(result.history.size(), 3500u);
  }
}

TEST(Session, JobsDefaultIsAllHardwareThreads) {
  // jobs == 0 means every hardware thread, clipped to the batch size.
  EXPECT_EQ(CampaignSpec{}.jobs, 0u);
  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  CampaignSpec spec = small_spec(8, 1, 1);
  spec.jobs = 0;
  EXPECT_EQ(Session(spec).resolved_jobs(), 1u);
  spec.batch_size = 64;
  EXPECT_EQ(Session(spec).resolved_jobs(),
            std::min<std::size_t>(hardware, 64));
}

}  // namespace
}  // namespace specure::core
