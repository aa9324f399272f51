// Determinism and thread-safety coverage for the parallel campaign
// pipeline (scheduler → workers → merger, core/session.hpp).
//
// The pipeline's contract: at a fixed rng_seed and batch_size, the
// CampaignResult is bit-identical regardless of the worker count, and
// batch_size == 1 reproduces the classic serial per-iteration feedback
// loop exactly.
#include <gtest/gtest.h>

#include "campaign_equal.hpp"
#include "core/campaign_scheduler.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"
#include "fuzz/corpus.hpp"
#include "sim/core.hpp"
#include "snapshot/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace specure::core {
namespace {

CampaignSpec campaign_spec(std::size_t jobs, std::size_t batch_size,
                           std::uint64_t iterations, std::uint64_t seed,
                           bool zenbleed = false) {
  CampaignSpec spec;
  spec.rng_seed = seed;
  spec.jobs = jobs;
  spec.batch_size = batch_size;
  spec.budget.iterations = iterations;
  spec.core.vuln.zenbleed_emulation = zenbleed;
  return spec;
}

CampaignResult run_campaign(std::size_t jobs, std::size_t batch_size,
                            std::uint64_t iterations, std::uint64_t seed,
                            bool zenbleed = false) {
  return Session(campaign_spec(jobs, batch_size, iterations, seed, zenbleed))
      .run();
}

TEST(CampaignParallel, Jobs4MatchesJobs1) {
  const auto serial = run_campaign(1, 16, 96, 33);
  const auto parallel = run_campaign(4, 16, 96, 33);
  expect_identical(serial, parallel);
}

TEST(CampaignParallel, OddWorkerCountAndBatchRemainder) {
  // 50 iterations over batches of 16 leaves a short tail batch; a worker
  // count that does not divide the batch stresses dynamic task claiming.
  const auto serial = run_campaign(1, 16, 50, 7);
  const auto parallel = run_campaign(3, 16, 50, 7);
  expect_identical(serial, parallel);
}

TEST(CampaignParallel, BatchSizeOneMatchesLegacyReferenceLoop) {
  // Hand-rolled replica of the pre-pipeline serial engine: per-iteration
  // feedback, one simulator, direct update() calls. The pipeline at
  // batch_size == 1 must reproduce it exactly for any worker count.
  CampaignSpec opts;
  opts.rng_seed = 5;

  OfflineResult offline = run_offline_phase(opts.core, opts.pdlc);
  sim::Simulator simulator(opts.core);
  fuzz::Fuzzer fuzzer(opts.fuzzer, opts.rng_seed);
  LpCoverageMap lp(offline.ifg, offline.pdlc, simulator.signal_db(),
                   opts.lp_policy);
  VulnerabilityDetector detector(offline.ifg, offline.pdlc,
                                 simulator.signal_db(), opts.detector);
  sim::CoverageRecorder code_cov;

  const std::uint64_t kIters = 60;
  CampaignResult ref;
  ref.pdlc_total = offline.pdlc.size();
  for (std::uint64_t iter = 1; iter <= kIters; ++iter) {
    const riscv::Program program = fuzzer.next();
    const sim::RunResult run = simulator.run(program);
    const auto windows = extract_mst(run.trace);

    ref.total_windows += windows.size();
    for (const auto& w : windows) {
      ref.mispredicted_windows += w.mispredicted;
      if (ref.mst_sample.size() < opts.mst_sample_rows && w.mispredicted) {
        ref.mst_sample.push_back(w);
      }
    }
    const std::size_t lp_new = lp.update(run.trace, windows);
    const std::size_t cov_new = code_cov.merge(run.coverage);
    bool new_finding = false;
    for (auto& report : detector.analyze(run, windows)) {
      // Dedup axis is the structural signature (dedup_key), exactly as in
      // the merger; the coarse finding_key is only the report bucket.
      if (ref.first_detection.emplace(dedup_key(report), iter).second) {
        ref.vulns.push_back(std::move(report));
        new_finding = true;
      }
    }
    if (new_finding || lp_new > 0) fuzzer.report_interesting(program);

    IterationRecord rec;
    rec.iteration = iter;
    rec.covered_pdlc = lp.covered();
    rec.coverage_points = code_cov.point_count();
    rec.vulns_found = ref.vulns.size();
    rec.cycles = run.cycles;
    ref.history.push_back(rec);
  }

  const auto serial = run_campaign(1, 1, kIters, opts.rng_seed);
  const auto parallel = run_campaign(4, 1, kIters, opts.rng_seed);
  expect_identical(ref, serial);
  expect_identical(ref, parallel);
}

TEST(CampaignParallel, StopConditionEndsMidBatch) {
  Session session(campaign_spec(4, 16, 1000, 22));
  session.add_stop(Session::stop_after_iterations(7));
  const auto res = session.run();
  EXPECT_EQ(res.history.size(), 7u);
}

TEST(CampaignParallel, ThreadSafetySmoke) {
  // A longer armed campaign at full batch width; asserts campaign
  // invariants hold when every layer runs under real thread interleaving.
  const auto res = run_campaign(4, 32, 320, 1, /*zenbleed=*/true);
  ASSERT_EQ(res.history.size(), 320u);
  for (std::size_t i = 0; i < res.history.size(); ++i) {
    EXPECT_EQ(res.history[i].iteration, i + 1);
    if (i > 0) {
      EXPECT_GE(res.history[i].covered_pdlc, res.history[i - 1].covered_pdlc);
      EXPECT_GE(res.history[i].coverage_points,
                res.history[i - 1].coverage_points);
      EXPECT_GE(res.history[i].vulns_found, res.history[i - 1].vulns_found);
    }
  }
  EXPECT_EQ(res.vulns.size(), res.first_detection.size());
  EXPECT_GT(res.total_windows, 0u);
}

TEST(CampaignParallel, ZeroJobsResolvesToHardwareConcurrency) {
  const Session session(campaign_spec(0, 8, 1, 1));
  EXPECT_GE(session.resolved_jobs(), 1u);
  EXPECT_LE(session.resolved_jobs(), 8u);  // clipped to the batch size
}

TEST(ThreadPool, RunsEveryTaskExactlyOnceAndPropagatesErrors) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.contexts(), 4u);
  std::vector<std::atomic<int>> hits(103);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(), [&](std::size_t task, std::size_t ctx) {
    ASSERT_LT(ctx, 4u);
    hits[task].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  EXPECT_THROW(
      pool.parallel_for(
          8,
          [](std::size_t task, std::size_t) {
            if (task == 3) throw std::runtime_error("boom");
          }),
      std::runtime_error);

  // The pool survives the failed batch and runs the next one.
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(FuzzerJobs, JobStreamMatchesSerialStream) {
  fuzz::FuzzerOptions fopts;
  fuzz::Fuzzer serial(fopts, 9);
  CampaignScheduler scheduler(fopts, 9, 12);
  std::vector<riscv::Program> expect;
  for (int i = 0; i < 12; ++i) expect.push_back(serial.next());
  std::vector<fuzz::FuzzJob> all;
  fuzz::FuzzJob job;
  while (scheduler.next_job(job)) all.push_back(job);
  ASSERT_EQ(all.size(), 12u);  // the budget caps the draws
  EXPECT_TRUE(scheduler.exhausted());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].iteration, i + 1);
    EXPECT_EQ(all[i].program.code, expect[i].code);
  }
}

}  // namespace
}  // namespace specure::core
