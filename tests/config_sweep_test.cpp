// Configuration-sweep property tests: the pipeline's architectural
// behaviour and the detection pipeline's soundness must hold across the
// microarchitectural parameter space (ROB size, cache geometry, resolve
// latencies), and the whole finding surface must vanish on the
// no-speculation control configuration.
#include <gtest/gtest.h>

#include "core/campaign_spec.hpp"
#include "core/offline.hpp"
#include "core/session.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "sim/iss.hpp"

namespace specure::sim {
namespace {

namespace csr = riscv::csr;
using riscv::Op;
using riscv::Program;

struct SweepPoint {
  const char* name;
  unsigned rob;
  unsigned sets;
  unsigned ways;
  unsigned branch_latency;
  unsigned miss_latency;
};

CoreConfig make_config(const SweepPoint& p) {
  CoreConfig cfg;
  cfg.rob_entries = p.rob;
  cfg.dcache_sets = p.sets;
  cfg.dcache_ways = p.ways;
  cfg.branch_resolve_latency = p.branch_latency;
  cfg.load_miss_latency = p.miss_latency;
  return cfg;
}

class ConfigSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(ConfigSweep, ArchitecturalEquivalenceWithReference) {
  const CoreConfig cfg = make_config(GetParam());
  Simulator simulator{cfg};
  util::Rng rng(808);
  int compared = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Program p = riscv::random_program(rng, 20 + rng.below(80));
    const RunResult run = simulator.run(p);
    if (!run.halted_clean) continue;
    Iss iss{cfg};
    const IssResult ref = iss.run(p);
    if (!ref.halted_clean) continue;
    const auto& last = run.trace[run.trace.size() - 1];
    for (unsigned r = 1; r < 32; ++r) {
      ASSERT_EQ(last.values[simulator.signal_db().id_of(
                    "core.rf.x" + std::to_string(r))],
                ref.regs[r])
          << GetParam().name << " x" << r;
    }
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_P(ConfigSweep, ZenbleedPocDetectedEverywhere) {
  // The emulated leak must be found regardless of microarchitectural
  // parameters (as long as speculation exists).
  if (GetParam().branch_latency < 2) return;  // no window to leak through
  CoreConfig cfg = make_config(GetParam());
  cfg.vuln.zenbleed_emulation = true;

  riscv::ProgramBuilder b;
  b.li(6, 1);
  b.csrrw(0, csr::kZenbleedEn, 6);
  b.li(10, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(5, 1);
  b.branch(Op::kBeq, 5, 5, "t");
  b.addi(7, 0, 99);
  b.label("t");
  b.nop();
  b.ecall();

  const core::OfflineResult off = core::run_offline_phase(cfg);
  Simulator simulator{cfg};
  core::VulnerabilityDetector detector(off.ifg, off.pdlc,
                                       simulator.signal_db(), {});
  const RunResult run = simulator.run(b.build());
  const auto windows = core::extract_mst(run.trace);
  const auto reports = detector.analyze(run, windows);
  ASSERT_FALSE(reports.empty()) << GetParam().name;
  EXPECT_EQ(reports[0].sink_signal, "core.rf.x7") << GetParam().name;
}

TEST_P(ConfigSweep, OfflinePhaseScalesWithGeometry) {
  const CoreConfig cfg = make_config(GetParam());
  const core::OfflineResult off = core::run_offline_phase(cfg);
  // Signal count must track the cache geometry: 3 array signals per line
  // plus one LRU per set.
  const CoreConfig base;
  const core::OfflineResult base_off = core::run_offline_phase(base);
  const long line_delta =
      static_cast<long>(cfg.dcache_sets * cfg.dcache_ways) -
      static_cast<long>(base.dcache_sets * base.dcache_ways);
  const long set_delta = static_cast<long>(cfg.dcache_sets) -
                         static_cast<long>(base.dcache_sets);
  EXPECT_EQ(static_cast<long>(off.ifg.node_count()) -
                static_cast<long>(base_off.ifg.node_count()),
            3 * line_delta + set_delta);
}

INSTANTIATE_TEST_SUITE_P(
    Points, ConfigSweep,
    ::testing::Values(
        SweepPoint{"baseline", 16, 8, 2, 20, 12},
        SweepPoint{"tiny_rob", 4, 8, 2, 20, 12},
        SweepPoint{"big_rob", 32, 8, 2, 20, 12},
        SweepPoint{"small_cache", 16, 2, 1, 20, 12},
        SweepPoint{"big_cache", 16, 16, 4, 20, 12},
        SweepPoint{"short_window", 16, 8, 2, 4, 12},
        SweepPoint{"long_window", 16, 8, 2, 48, 12},
        SweepPoint{"slow_memory", 16, 8, 2, 20, 40},
        SweepPoint{"fast_memory", 16, 8, 2, 20, 3}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------- no-speculation control --

TEST(NoSpeculationControl, NoTransientExecutionHappens) {
  const CoreConfig cfg = no_speculation_config();
  Simulator simulator{cfg};
  util::Rng rng(7);
  const auto seeds = fuzz::special_seeds(rng);
  for (const auto& seed : seeds) {
    const RunResult run = simulator.run(seed.program);
    const auto& db = simulator.signal_db();
    const auto tainted = db.id_of("core.lsu.tainted_access");
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
      ASSERT_EQ(run.trace[i].values[tainted], 0u)
          << seed.name << ": transient tainted access without speculation";
    }
  }
}

TEST(NoSpeculationControl, ZenbleedUnreachable) {
  CoreConfig cfg = no_speculation_config();
  cfg.vuln.zenbleed_emulation = true;

  riscv::ProgramBuilder b;
  b.li(6, 1);
  b.csrrw(0, csr::kZenbleedEn, 6);
  b.li(5, 1);
  b.branch(Op::kBeq, 5, 5, "t");
  b.addi(7, 0, 99);
  b.label("t");
  b.nop();
  b.ecall();

  Simulator simulator{cfg};
  const RunResult run = simulator.run(b.build());
  const auto& last = run.trace[run.trace.size() - 1];
  EXPECT_EQ(last.values[simulator.signal_db().id_of("core.rf.x7")], 0u)
      << "without a window nothing transient exists to leak";
}

TEST(NoSpeculationControl, CampaignFindsNothing) {
  core::CampaignSpec spec;
  spec.core = no_speculation_config();
  spec.core.vuln.mwait_emulation = true;
  spec.core.vuln.zenbleed_emulation = true;
  spec.detector.monitor_cache = true;
  spec.rng_seed = 3;
  spec.batch_size = 1;
  spec.budget.iterations = 300;
  const auto result = core::Session(spec).run();
  EXPECT_TRUE(result.vulns.empty());
}

TEST(NoSpeculationControl, MispredictionsStillHappenArchitecturally) {
  // The control core still *predicts* (and trains); it just never lets
  // wrong-path work execute. Confirm it runs programs correctly.
  const CoreConfig cfg = no_speculation_config();
  Simulator simulator{cfg};
  riscv::ProgramBuilder b;
  b.li(5, 5).li(6, 0);
  b.label("loop");
  b.addi(6, 6, 2);
  b.addi(5, 5, -1);
  b.branch(Op::kBne, 5, 0, "loop");
  b.ecall();
  const RunResult run = simulator.run(b.build());
  EXPECT_TRUE(run.halted_clean);
  EXPECT_EQ(run.trace[run.trace.size() - 1]
                .values[simulator.signal_db().id_of("core.rf.x6")],
            10u);
}

}  // namespace
}  // namespace specure::sim
