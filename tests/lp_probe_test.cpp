// LP probe differential suite: the watch-list probe
// (LpCoverageMap::probe + LpCoveredSet::commit) against the scalar
// reference LpCoverageMap::update(), over fuzzer-driven corpora on the
// default and full presets under both covering policies. Part of each
// corpus runs with the dense reference recorder, whose update() overload
// shares no window-walk code with the probe. The edge cases pin what the
// probe's shortcuts must preserve: stale covered shadows, repeated change
// sets, empty and out-of-range windows, and channels that resolve to no
// recorded signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign_spec.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/seeds.hpp"
#include "sim/core.hpp"
#include "util/atomic_bitset.hpp"
#include "util/rng.hpp"

namespace specure {
namespace {

constexpr std::size_t kPrograms = 200;
/// Every kDenseEvery-th program also records the dense reference trace
/// and is checked against update() on it.
constexpr std::size_t kDenseEvery = 8;

bool strictly_ascending(const std::vector<std::size_t>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}

bool contains(const std::vector<std::size_t>& sorted, std::size_t c) {
  return std::binary_search(sorted.begin(), sorted.end(), c);
}

/// The covered shadow as a worker racing the merger may read it: a
/// random subset of the committed channels.
util::AtomicBitset stale_shadow(const core::LpCoveredSet& committed,
                                util::Rng& rng) {
  util::AtomicBitset shadow(committed.total());
  for (std::size_t c = 0; c < committed.total(); ++c) {
    if (committed.is_covered(c) && rng.next() % 2 == 0) shadow.set(c);
  }
  return shadow;
}

/// A campaign-shaped differential: fuzzer programs with coverage
/// feedback, each probed (no shadow, the exact shadow, or a stale one,
/// in rotation) and committed, while the reference update() accounts
/// the same run. Fresh counts and covered masks must agree at every
/// iteration.
void run_differential(const char* preset, core::LpPolicy policy) {
  const core::CampaignSpec spec = core::CampaignSpec::preset(preset);
  const core::OfflineResult off = core::run_offline_phase(spec.core, spec.pdlc);
  const sim::Simulator sim(spec.core);
  sim::CoreConfig dense_cfg = spec.core;
  dense_cfg.record_dense_trace = true;
  const sim::Simulator dense_sim(dense_cfg);

  const core::LpCoverageMap prober(off.ifg, off.pdlc, sim.signal_db(), policy);
  core::LpCoverageMap oracle(off.ifg, off.pdlc, sim.signal_db(), policy);
  core::LpCoverageMap single(off.ifg, off.pdlc, sim.signal_db(), policy);
  const std::vector<bool> none(off.pdlc.size(), false);
  core::LpCoveredSet committed(off.pdlc.size());
  util::AtomicBitset shadow(off.pdlc.size());
  fuzz::Fuzzer fuzzer(spec.fuzzer, 7);
  util::Rng rng(13);
  std::size_t repeated = 0;
  std::vector<std::uint64_t> words, previous;

  for (std::size_t i = 0; i < kPrograms; ++i) {
    SCOPED_TRACE(std::string(preset) + " program " + std::to_string(i));
    const riscv::Program program = fuzzer.next();
    const bool dense = i % kDenseEvery == 0;
    const sim::RunResult run = (dense ? dense_sim : sim).run(program);
    const auto windows = core::extract_mst(run.trace);

    // The real traffic must exercise the repeated-change-set skip.
    previous.clear();
    for (const core::SpecWindow& w : windows) {
      run.trace.changed_words(w.start_cycle, w.end_cycle, words);
      repeated += words == previous;
      previous = words;
    }

    std::vector<std::size_t> hits;
    switch (i % 3) {
      case 0: {
        // No shadow: every channel the run exercised, covered or not —
        // exactly what update() covers from an empty set.
        hits = prober.probe(run.trace, windows);
        single.restore_covered(none);
        single.update(run.trace, windows);
        std::vector<std::size_t> expected;
        for (std::size_t c = 0; c < single.total(); ++c) {
          if (single.covered_mask()[c]) expected.push_back(c);
        }
        ASSERT_EQ(hits, expected);
        break;
      }
      case 1:
        hits = prober.probe(run.trace, windows, &shadow);
        break;
      default: {
        // A stale shadow may only add hits that commit() filters out.
        const util::AtomicBitset stale = stale_shadow(committed, rng);
        hits = prober.probe(run.trace, windows, &stale);
        const auto exact = prober.probe(run.trace, windows, &shadow);
        ASSERT_TRUE(
            std::includes(hits.begin(), hits.end(), exact.begin(), exact.end()));
        for (const std::size_t c : hits) {
          if (!contains(exact, c)) EXPECT_TRUE(committed.is_covered(c)) << c;
        }
        break;
      }
    }
    ASSERT_TRUE(strictly_ascending(hits));

    const std::size_t fresh = committed.commit(hits);
    for (const std::size_t c : hits) shadow.set(c);
    const std::size_t expected = dense ? oracle.update(*run.dense_trace, windows)
                                       : oracle.update(run.trace, windows);
    ASSERT_EQ(fresh, expected);
    ASSERT_EQ(committed.covered_mask(), oracle.covered_mask());
    // The exact shadow is the committed set, so every hit is new.
    if (i % 3 == 1) EXPECT_EQ(hits.size(), fresh);
    if (fresh > 0) fuzzer.report_interesting(program);
  }
  EXPECT_GT(committed.covered(), 0u);
  EXPECT_GT(repeated, 0u);
}

TEST(LpProbeDifferential, DefaultPresetAllSignals) {
  run_differential("default", core::LpPolicy::kAllSignals);
}

TEST(LpProbeDifferential, DefaultPresetEndpoints) {
  run_differential("default", core::LpPolicy::kEndpoints);
}

TEST(LpProbeDifferential, FullPresetAllSignals) {
  run_differential("full", core::LpPolicy::kAllSignals);
}

TEST(LpProbeDifferential, FullPresetEndpoints) {
  run_differential("full", core::LpPolicy::kEndpoints);
}

// ------------------------------------------------------------ edge cases --

struct Fixture {
  core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});
  sim::Simulator sim{sim::CoreConfig{}};
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

sim::RunResult mispredict_run(std::uint64_t seed) {
  util::Rng rng(seed);
  return fixture().sim.run(fuzz::make_branch_mispredict_seed(rng).program);
}

TEST(LpProbeEdges, EmptyWindowListAndWindowsPastTheEnd) {
  const Fixture& f = fixture();
  const sim::RunResult run = mispredict_run(3);
  const auto windows = core::extract_mst(run.trace);
  core::LpCoverageMap map(f.off.ifg, f.off.pdlc, f.sim.signal_db());

  EXPECT_TRUE(map.probe(run.trace, {}).empty());
  EXPECT_EQ(map.update(run.trace, {}), 0u);

  const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
  core::SpecWindow tail, beyond;
  tail.start_cycle = last;
  tail.end_cycle = last + 64;
  beyond.start_cycle = last + 10;
  beyond.end_cycle = last + 50;
  EXPECT_TRUE(map.probe(run.trace, {tail, beyond}).empty());
  EXPECT_EQ(map.update(run.trace, {tail, beyond}), 0u);

  // Appended after real windows, they change nothing.
  auto padded = windows;
  padded.push_back(beyond);
  padded.push_back(tail);
  EXPECT_EQ(map.probe(run.trace, padded), map.probe(run.trace, windows));
}

TEST(LpProbeEdges, RepeatedChangeSetsAddNothingAndDoNotCarryAcrossProbes) {
  const Fixture& f = fixture();
  const sim::RunResult run = mispredict_run(5);
  const auto windows = core::extract_mst(run.trace);
  const core::LpCoverageMap map(f.off.ifg, f.off.pdlc, f.sim.signal_db());
  const auto once = map.probe(run.trace, windows);
  ASSERT_FALSE(once.empty());

  // Every window twice in a row: each repeat has its predecessor's
  // change set, so the skip fires on every other window.
  std::vector<core::SpecWindow> doubled;
  for (const auto& w : windows) {
    doubled.push_back(w);
    doubled.push_back(w);
  }
  EXPECT_EQ(map.probe(run.trace, doubled), once);
  core::LpCoverageMap oracle(f.off.ifg, f.off.pdlc, f.sim.signal_db());
  EXPECT_EQ(oracle.update(run.trace, doubled), once.size());

  // The previous-window memory is per probe: probing one window twice
  // answers the same both times.
  std::size_t hitting = 0;
  for (const auto& w : windows) {
    const auto first = map.probe(run.trace, {w});
    hitting += !first.empty();
    EXPECT_EQ(map.probe(run.trace, {w}), first);
  }
  EXPECT_GT(hitting, 0u);
}

TEST(LpProbeEdges, ChannelResolvingToNoSignalIsNeverHit) {
  const Fixture& f = fixture();
  const sim::RunResult run = mispredict_run(7);
  const auto windows = core::extract_mst(run.trace);
  for (const core::LpPolicy policy :
       {core::LpPolicy::kAllSignals, core::LpPolicy::kEndpoints}) {
    SCOPED_TRACE(policy == core::LpPolicy::kAllSignals ? "all-signals"
                                                       : "endpoints");
    const core::LpCoverageMap base(f.off.ifg, f.off.pdlc, f.sim.signal_db(),
                                   policy);
    const auto base_hits = base.probe(run.trace, windows);
    ASSERT_FALSE(base_hits.empty());
    const std::size_t k = base_hits.front();

    // One channel made only of a node no signal records, and a copy of
    // channel k with that node spliced into its path (it must behave
    // exactly like k).
    ift::Ifg ifg = f.off.ifg;
    ift::PdlcList pdlc = f.off.pdlc;
    const ift::NodeId ghost = ifg.add_node("lp_probe_test.unrecorded");
    ift::Pdlc mixed = f.off.pdlc[k];
    mixed.path.insert(mixed.path.begin() + 1, ghost);
    pdlc.add(ift::Pdlc{ghost, ghost, {ghost}});
    pdlc.add(mixed);
    const std::size_t ghost_channel = f.off.pdlc.size();
    const std::size_t mixed_channel = ghost_channel + 1;

    core::LpCoverageMap map(ifg, pdlc, f.sim.signal_db(), policy);
    ASSERT_EQ(map.total(), f.off.pdlc.size() + 2);
    const auto hits = map.probe(run.trace, windows);
    EXPECT_FALSE(contains(hits, ghost_channel));
    EXPECT_TRUE(contains(hits, mixed_channel));
    // The original channels answer as before.
    EXPECT_EQ(std::vector<std::size_t>(hits.begin(), hits.end() - 1),
              base_hits);
    map.update(run.trace, windows);
    EXPECT_FALSE(map.covered_mask()[ghost_channel]);
    EXPECT_TRUE(map.covered_mask()[mixed_channel]);
  }
}

}  // namespace
}  // namespace specure
