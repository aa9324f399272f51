// Trace differential suite: replay identical programs through the
// retained dense reference recorder (CoreConfig::record_dense_trace) and
// the delta-native Trace, and assert every query the Online Phase
// detectors use answers identically — materialization, diff,
// toggle-derived change counts, change masks, pulse detection — plus VCD
// byte-equivalence and a golden-file round-trip through the reader.
#include <gtest/gtest.h>

#include <sstream>

#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "snapshot/vcd.hpp"
#include "util/rng.hpp"

namespace specure {
namespace {

// The simulator owns the SignalDb every trace points into, so it must
// outlive the RunResults the tests hold — one shared static instance.
sim::RunResult dual_run(const riscv::Program& program) {
  static sim::Simulator sim = [] {
    sim::CoreConfig cfg;
    cfg.record_dense_trace = true;
    return sim::Simulator(cfg);
  }();
  sim::RunResult run = sim.run(program);
  EXPECT_NE(run.dense_trace, nullptr);
  return run;
}

std::vector<riscv::Program> corpus() {
  std::vector<riscv::Program> programs;
  util::Rng rng(11);
  programs.push_back(fuzz::make_branch_mispredict_seed(rng).program);
  programs.push_back(fuzz::make_bti_seed(rng).program);
  for (int i = 0; i < 3; ++i) {
    programs.push_back(riscv::random_program(rng, 64 + 32 * i));
  }
  return programs;
}

TEST(TraceDifferential, EveryTickMaterializesIdentically) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    ASSERT_EQ(run.trace.size(), dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const snapshot::Snapshot snap = run.trace[i];
      ASSERT_EQ(snap.cycle, dense[i].cycle) << "tick " << i;
      ASSERT_EQ(snap.values, dense[i].values) << "tick " << i;
    }
  }
}

TEST(TraceDifferential, WindowDiffMatchesDenseSnapshotDiff) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    const auto windows = core::extract_mst(run.trace);
    for (const auto& w : windows) {
      const auto delta = run.trace.diff(w.start_cycle, w.end_cycle);
      const auto ref = snapshot::diff(dense.at_cycle(w.start_cycle),
                                      dense.at_cycle(w.end_cycle));
      ASSERT_EQ(delta.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(delta[i].id, ref[i].id);
        EXPECT_EQ(delta[i].before, ref[i].before);
        EXPECT_EQ(delta[i].after, ref[i].after);
      }
    }
  }
}

TEST(TraceDifferential, ChangeCountsAndMasksMatchDense) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
    // Windows of several shapes: detector windows, whole trace, clipped
    // and fully out-of-range.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, last}, {1, last}, {last / 2, last}, {3, 17}, {last, last + 40}};
    for (const auto& w : core::extract_mst(run.trace)) {
      ranges.emplace_back(w.start_cycle, w.end_cycle);
    }
    for (const auto& [from, to] : ranges) {
      EXPECT_EQ(run.trace.change_counts(from, to),
                dense.change_counts(from, to))
          << "window [" << from << ", " << to << "]";
      EXPECT_EQ(run.trace.changed_mask(from, to), dense.changed_mask(from, to))
          << "window [" << from << ", " << to << "]";
    }
  }
}

TEST(TraceDifferential, ToggleCoverageMatchesDenseRecomputation) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    std::uint64_t ref_toggles = 0;
    for (std::size_t i = 1; i < dense.size(); ++i) {
      ref_toggles += snapshot::toggle_count(dense[i - 1], dense[i]);
    }
    EXPECT_EQ(run.coverage.toggle_bits(), ref_toggles);
  }
}

TEST(TraceDifferential, AnyNonzeroMatchesDenseScan) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    const auto id = run.trace.db().id_of("core.lsu.tainted_access");
    const auto mispred = run.trace.db().id_of("core.rob.brupdate_mispredict");
    const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
    for (const snapshot::SignalId sig : {id, mispred}) {
      for (const auto& [from, to] :
           std::vector<std::pair<std::uint64_t, std::uint64_t>>{
               {1, last}, {1, last / 2}, {last / 2, last}}) {
        bool ref = false;
        for (std::uint64_t c = from + 1; c <= to; ++c) {
          if (dense.at_cycle(c).values[sig] != 0) {
            ref = true;
            break;
          }
        }
        EXPECT_EQ(run.trace.any_nonzero(sig, from, to), ref)
            << "signal " << sig << " window (" << from << ", " << to << "]";
      }
    }
  }
}

TEST(TraceDifferential, LpCoverageIdenticalOnBothPaths) {
  const core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const auto windows = core::extract_mst(run.trace);
    core::LpCoverageMap delta_map(off.ifg, off.pdlc, run.trace.db());
    core::LpCoverageMap dense_map(off.ifg, off.pdlc, run.trace.db());
    delta_map.update(run.trace, windows);
    dense_map.update(*run.dense_trace, windows);
    EXPECT_EQ(delta_map.covered_mask(), dense_map.covered_mask());
  }
}

TEST(TraceDifferential, VcdWritersAreByteIdentical) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    std::ostringstream from_delta, from_dense;
    snapshot::write_vcd(from_delta, run.trace, "miniboom");
    snapshot::write_vcd(from_dense, *run.dense_trace, "miniboom");
    EXPECT_EQ(from_delta.str(), from_dense.str());
  }
}

TEST(TraceDifferential, VcdRoundTripRestoresEveryValue) {
  util::Rng rng(23);
  const sim::RunResult run = dual_run(riscv::random_program(rng, 96));
  std::ostringstream os;
  snapshot::write_vcd(os, run.trace);
  std::istringstream is(os.str());
  const snapshot::VcdData parsed = snapshot::read_vcd(is);

  const snapshot::SignalDb& db = run.trace.db();
  ASSERT_EQ(parsed.names.size(), db.size());
  ASSERT_EQ(parsed.cycles.size(), run.trace.size());
  for (std::size_t t = 0; t < run.trace.size(); ++t) {
    const snapshot::Snapshot snap = run.trace[t];
    ASSERT_EQ(parsed.cycles[t], snap.cycle);
    for (snapshot::SignalId i = 0; i < db.size(); ++i) {
      const unsigned width = db.info(i).width;
      const std::uint64_t mask =
          width >= 64 ? ~0ULL : ((1ULL << width) - 1);
      ASSERT_EQ(parsed.values[t][i], snap.values[i] & mask)
          << "tick " << t << " signal " << db.info(i).name;
    }
  }
}

TEST(TraceDifferential, WindowVcdMatchesWholeTraceTail) {
  util::Rng rng(29);
  const sim::RunResult run =
      dual_run(fuzz::make_branch_mispredict_seed(rng).program);
  const auto windows = core::extract_mst(run.trace);
  ASSERT_FALSE(windows.empty());
  const auto& w = windows.front();

  std::ostringstream os;
  snapshot::write_vcd_window(os, run.trace, w.start_cycle, w.end_cycle);
  std::istringstream is(os.str());
  const snapshot::VcdData parsed = snapshot::read_vcd(is);

  ASSERT_FALSE(parsed.cycles.empty());
  EXPECT_EQ(parsed.cycles.front(), w.start_cycle);
  EXPECT_EQ(parsed.cycles.back(), w.end_cycle);
  for (std::size_t t = 0; t < parsed.cycles.size(); ++t) {
    const snapshot::Snapshot snap = run.trace.at_cycle(parsed.cycles[t]);
    for (snapshot::SignalId i = 0; i < run.trace.db().size(); ++i) {
      const unsigned width = run.trace.db().info(i).width;
      const std::uint64_t mask =
          width >= 64 ? ~0ULL : ((1ULL << width) - 1);
      ASSERT_EQ(parsed.values[t][i], snap.values[i] & mask);
    }
  }
}

// --- Dirty-set capture sufficiency matrix -------------------------------
//
// The non-dense capture path walks only the signal ids the components
// marked dirty this cycle (Trace::record_dirty); the dense config forces
// the full per-cycle sweep through the very same Trace. A component that
// under-marks — forgets one store-side LRU rotation, one rolled-back
// map-table entry, one TLB fill — makes the two event streams diverge,
// so byte-comparing them proves the dirty set is a superset of every
// actual change (and record()'s no-op on unchanged values makes a
// superset exact).

sim::CoreConfig preset_cfg(const char* name) {
  sim::CoreConfig cfg;
  EXPECT_TRUE(sim::lookup_core_preset(name, cfg)) << name;
  return cfg;
}

/// Everything the campaign consumes must be bit-identical: the event
/// stream (via VCD byte-compare, which serializes every change event),
/// toggle coverage, the commit log, and the architectural end state.
void expect_bit_identical(const sim::RunResult& a, const sim::RunResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  std::ostringstream va, vb;
  snapshot::write_vcd(va, a.trace, "miniboom");
  snapshot::write_vcd(vb, b.trace, "miniboom");
  EXPECT_EQ(va.str(), vb.str());
  EXPECT_EQ(a.coverage.toggle_bits(), b.coverage.toggle_bits());
  EXPECT_EQ(a.instructions_committed, b.instructions_committed);
  EXPECT_EQ(a.halted_clean, b.halted_clean);
  EXPECT_EQ(a.final_data, b.final_data);
  ASSERT_EQ(a.commits.size(), b.commits.size());
  for (std::size_t i = 0; i < a.commits.size(); ++i) {
    const auto& x = a.commits[i];
    const auto& y = b.commits[i];
    EXPECT_EQ(x.cycle, y.cycle) << "commit " << i;
    EXPECT_EQ(x.pc, y.pc) << "commit " << i;
    EXPECT_EQ(x.inst, y.inst) << "commit " << i;
    EXPECT_EQ(x.writes_rd, y.writes_rd) << "commit " << i;
    EXPECT_EQ(x.rd, y.rd) << "commit " << i;
    EXPECT_EQ(x.writes_csr, y.writes_csr) << "commit " << i;
    EXPECT_EQ(x.csr, y.csr) << "commit " << i;
    EXPECT_EQ(x.is_store, y.is_store) << "commit " << i;
    EXPECT_EQ(x.store_addr, y.store_addr) << "commit " << i;
  }
}

TEST(TraceDifferential, DirtyCaptureMatchesDenseSweepAcrossConfigs) {
  // Every core preset exercises a different mark surface: mwait drives
  // the CSR timer chain (dcache monitored-line hook), zenbleed the
  // rollback suppression path, no-spec the degenerate pipeline, full
  // everything at once. The corpus covers wrong-path execution and
  // mispredict rollback (branch-mispredict and BTI seeds) plus random
  // programs.
  for (const char* preset :
       {"default", "no-spec", "mwait", "zenbleed", "full"}) {
    sim::CoreConfig cfg = preset_cfg(preset);
    sim::Simulator dirty_sim(cfg);
    cfg.record_dense_trace = true;
    sim::Simulator dense_sim(cfg);
    for (const auto& program : corpus()) {
      const sim::RunResult dirty = dirty_sim.run(program);
      const sim::RunResult dense = dense_sim.run(program);
      SCOPED_TRACE(preset);
      expect_bit_identical(dirty, dense);
    }
  }
}

TEST(TraceDifferential, DeltaTraceIsAtLeastFiveTimesSmaller) {
  util::Rng rng(31);
  const sim::RunResult run = dual_run(riscv::random_program(rng, 128));
  ASSERT_GT(run.trace.size(), 100u);  // a real run, not a stub
  EXPECT_GE(run.dense_trace->memory_bytes(), 5 * run.trace.memory_bytes())
      << "delta trace lost its memory advantage: dense="
      << run.dense_trace->memory_bytes()
      << " delta=" << run.trace.memory_bytes();
}

}  // namespace
}  // namespace specure
