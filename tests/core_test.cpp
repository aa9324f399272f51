#include <gtest/gtest.h>

#include "core/campaign_spec.hpp"
#include "core/coverage_calc.hpp"
#include "core/leakage.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/program.hpp"

namespace specure::core {
namespace {

namespace csr = riscv::csr;
using riscv::Op;
using riscv::Program;
using riscv::ProgramBuilder;

constexpr std::uint8_t A0 = 10, A1 = 11, T0 = 5, T1 = 6, T2 = 7;

Program mispredict_program(const std::vector<std::uint32_t>& wrong_path,
                           const std::vector<std::uint32_t>& prologue = {}) {
  ProgramBuilder b;
  for (auto w : prologue) b.raw(w);
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 1);
  b.branch(Op::kBeq, T0, T0, "t");
  for (auto w : wrong_path) b.raw(w);
  b.label("t");
  b.nop();
  b.ecall();
  return b.build();
}

/// The classic serial campaign (batch 1: every iteration's corpus
/// feedback lands before the next program is drawn).
CampaignSpec serial_spec(std::uint64_t seed, std::uint64_t iterations) {
  CampaignSpec spec;
  spec.rng_seed = seed;
  spec.batch_size = 1;
  spec.budget.iterations = iterations;
  return spec;
}

struct Pipeline {
  explicit Pipeline(sim::CoreConfig cfg, DetectorOptions dopt = {})
      : offline(run_offline_phase(cfg)),
        simulator(cfg),
        detector(offline.ifg, offline.pdlc, simulator.signal_db(), dopt) {}

  std::vector<VulnReport> analyze(const Program& p) {
    run = simulator.run(p);
    windows = extract_mst(run->trace);
    return detector.analyze(*run, windows);
  }

  OfflineResult offline;
  sim::Simulator simulator;
  VulnerabilityDetector detector;
  std::optional<sim::RunResult> run;
  std::vector<SpecWindow> windows;
};

// ------------------------------------------------------------------ MST --

TEST(Mst, FindsMispredictedWindow) {
  Pipeline pipe{sim::CoreConfig{}};
  pipe.analyze(mispredict_program({riscv::enc_nop()}));
  ASSERT_GE(pipe.windows.size(), 1u);
  const SpecWindow& w = pipe.windows[0];
  EXPECT_TRUE(w.mispredicted);
  EXPECT_GT(w.end_cycle, w.start_cycle);
  EXPECT_EQ(riscv::decode(w.inst).op, Op::kBeq);
}

TEST(Mst, NoWindowsInStraightLineCode) {
  ProgramBuilder b;
  b.li(T0, 1).addi(T0, T0, 2).ecall();
  Pipeline pipe{sim::CoreConfig{}};
  pipe.analyze(b.build());
  EXPECT_TRUE(pipe.windows.empty());
}

TEST(Mst, CorrectlyPredictedWindowNotMispredicted) {
  // A never-taken branch matches the predictor's reset state: the window
  // opens (branch unresolved) but resolves as correctly predicted.
  ProgramBuilder b;
  b.li(T0, 1).li(T1, 2);
  b.branch(Op::kBeq, T0, T1, "t");  // not taken, predicted not-taken
  b.nop();
  b.label("t");
  b.ecall();
  Pipeline pipe{sim::CoreConfig{}};
  pipe.analyze(b.build());
  ASSERT_EQ(pipe.windows.size(), 1u);
  EXPECT_FALSE(pipe.windows[0].mispredicted);
}

TEST(Mst, RowFormatMatchesPaperStyle) {
  SpecWindow w;
  w.start_cycle = 34594;
  w.end_cycle = 34625;
  w.inst = 0xFBEC52E3;
  w.pc = 0x800025B0 - static_cast<std::uint64_t>(
                          riscv::decode(0xFBEC52E3).imm);
  const std::string row = format_mst_row(1, w);
  EXPECT_NE(row.find("34594"), std::string::npos);
  EXPECT_NE(row.find("34625"), std::string::npos);
  EXPECT_NE(row.find("FBEC52E3"), std::string::npos);
  EXPECT_NE(row.find("BGE S8, T5, 0x800025B0"), std::string::npos);
}

// -------------------------------------------------------------- leakage --

TEST(Leakage, OnlyMispredictedWindowsAnalyzed) {
  Pipeline pipe{sim::CoreConfig{}};
  ProgramBuilder b;
  b.li(T0, 1).li(T1, 2);
  b.branch(Op::kBeq, T0, T1, "t");  // correctly predicted
  b.nop();
  b.label("t");
  b.ecall();
  pipe.analyze(b.build());
  const auto leaks = detect_leakage(pipe.run->trace, pipe.windows);
  EXPECT_TRUE(leaks.empty());
}

TEST(Leakage, SquashedWindowStillShowsMicroarchResidue) {
  Pipeline pipe{sim::CoreConfig{}};
  pipe.analyze(mispredict_program({riscv::enc_i(Op::kLd, T2, A0, 0x200)}));
  const auto leaks = detect_leakage(pipe.run->trace, pipe.windows);
  ASSERT_GE(leaks.size(), 1u);
  bool dcache_delta = false;
  for (const auto& d : leaks[0].deltas) {
    const auto& name = pipe.simulator.signal_db().info(d.id).name;
    dcache_delta |= name.rfind("core.dcache.", 0) == 0;
  }
  EXPECT_TRUE(dcache_delta) << "speculative cache fill must survive squash";
}

// ---------------------------------------------------------- vuln detect --

TEST(VulnDetect, ZenbleedDetectedWithRootCause) {
  ProgramBuilder setup;
  setup.li(T1, 1);
  setup.csrrw(0, csr::kZenbleedEn, T1);
  sim::CoreConfig cfg;
  cfg.vuln.zenbleed_emulation = true;
  Pipeline pipe{cfg};
  const auto reports = pipe.analyze(mispredict_program(
      {riscv::enc_i(Op::kAddi, T2, 0, 99)}, setup.build().code));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, VulnKind::kDirectLeak);
  EXPECT_EQ(reports[0].sink_signal, "core.rf.x7");
  EXPECT_EQ(reports[0].after, 99u);
  // Paper: root cause names the rename module / register file path.
  ASSERT_FALSE(reports[0].root_causes.empty());
  bool rename_named = false;
  for (const auto& rc : reports[0].root_causes) {
    rename_named |=
        rc.source_signal.rfind("core.rename.", 0) == 0 ||
        rc.source_signal.rfind("core.prf.", 0) == 0;
  }
  EXPECT_TRUE(rename_named);
  EXPECT_EQ(reports[0].cwe, "CWE-1342");
}

TEST(VulnDetect, MwaitDetectedWithDcacheRootCause) {
  ProgramBuilder setup;
  setup.li(A1, static_cast<std::int64_t>(riscv::kDataBase + 0x300));
  setup.csrrw(0, csr::kMonitorAddr, A1);
  setup.li(T1, 1);
  setup.csrrw(0, csr::kMwaitEn, T1);
  sim::CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  Pipeline pipe{cfg};
  const auto reports = pipe.analyze(mispredict_program(
      {riscv::enc_i(Op::kLd, T2, A0, 0x300)}, setup.build().code));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].sink_signal, "core.csr.mwait_timer");
  ASSERT_FALSE(reports[0].root_causes.empty());
  // Paper: "direct leakage path between the data cache and mwait_timer".
  bool dcache_named = false;
  for (const auto& rc : reports[0].root_causes) {
    dcache_named |= rc.source_signal.rfind("core.dcache.", 0) == 0;
  }
  EXPECT_TRUE(dcache_named);
}

TEST(VulnDetect, NoFalsePositiveOnCleanMispredict) {
  Pipeline pipe{sim::CoreConfig{}};
  EXPECT_TRUE(pipe.analyze(mispredict_program({riscv::enc_nop()})).empty());
}

TEST(VulnDetect, NoFalsePositiveOnCommitsInsideWindow) {
  // An older slow divide commits while the window is open: the rf change
  // must be discharged by the commit log, not reported.
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 84).li(T1, 2);
  b.raw(riscv::enc_r(Op::kDiv, T2, T0, T1));  // slow op, commits late
  b.li(28, 1);
  b.branch(Op::kBeq, 28, 28, "t");  // mispredicted (taken)
  b.nop();
  b.label("t");
  b.nop();
  b.ecall();
  Pipeline pipe{sim::CoreConfig{}};
  EXPECT_TRUE(pipe.analyze(b.build()).empty());
}

TEST(VulnDetect, ZenbleedNotDetectedWhenEmulationOff) {
  ProgramBuilder setup;
  setup.li(T1, 1);
  setup.csrrw(0, csr::kZenbleedEn, T1);
  Pipeline pipe{sim::CoreConfig{}};  // emulation off
  EXPECT_TRUE(pipe.analyze(mispredict_program(
                      {riscv::enc_i(Op::kAddi, T2, 0, 99)},
                      setup.build().code))
                  .empty());
}

TEST(VulnDetect, SpectreSeedTriggersCacheResidueInMonitorMode) {
  util::Rng rng(1);
  const auto seed = fuzz::make_branch_mispredict_seed(rng);
  DetectorOptions dopt;
  dopt.monitor_cache = true;
  Pipeline pipe{sim::CoreConfig{}, dopt};
  const auto reports = pipe.analyze(seed.program);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, VulnKind::kCacheResidue);
  EXPECT_FALSE(reports[0].root_causes.empty());
}

TEST(VulnDetect, CacheResidueRequiresMonitorMode) {
  util::Rng rng(1);
  const auto seed = fuzz::make_branch_mispredict_seed(rng);
  Pipeline pipe{sim::CoreConfig{}};  // monitor_cache off
  for (const auto& r : pipe.analyze(seed.program)) {
    EXPECT_NE(r.kind, VulnKind::kCacheResidue);
  }
}

TEST(VulnDetect, CacheResidueRequiresTaintedAccess) {
  // A wrong-path load with an *untainted* address changes the cache but is
  // not a Spectre gadget; monitor mode must not flag it.
  DetectorOptions dopt;
  dopt.monitor_cache = true;
  Pipeline pipe{sim::CoreConfig{}, dopt};
  const auto reports = pipe.analyze(
      mispredict_program({riscv::enc_i(Op::kLd, T2, A0, 0x200)}));
  EXPECT_TRUE(reports.empty());
}

// -------------------------------------------------------------- offline --

TEST(Offline, MiniBoomStats) {
  const OfflineResult off = run_offline_phase(sim::CoreConfig{});
  // Sanity bands for the default configuration (absolute numbers tracked
  // in EXPERIMENTS.md; the paper's BOOM has 162,631 signals / 9,048
  // channels — MiniBOOM is proportionally smaller).
  EXPECT_GT(off.ifg.node_count(), 200u);
  EXPECT_GT(off.ifg.edge_count(), 4000u);
  EXPECT_GT(off.pdlc.size(), 4000u);
  EXPECT_LT(off.pdlc.size(), 50'000u);
}

TEST(Offline, MwaitEmulationShortensDcacheToTimerPath) {
  // The dcache->CSR channel pair exists even without the emulation (a load
  // value can be CSR-written architecturally), but the emulation adds the
  // *direct* dcache->mwait_timer edge, so the witness path collapses to
  // length 2 — the root-cause report the paper shows.
  auto witness_len = [](const OfflineResult& off) -> std::size_t {
    const auto sink = off.ifg.id_of("core.csr.mwait_timer");
    const auto src = off.ifg.id_of("core.dcache.valid_0_0");
    for (std::size_t idx : off.pdlc.by_sink(sink)) {
      if (off.pdlc[idx].source == src) return off.pdlc[idx].path.size();
    }
    return 0;
  };
  sim::CoreConfig vuln;
  vuln.vuln.mwait_emulation = true;
  const std::size_t plain_len = witness_len(run_offline_phase({}));
  const std::size_t vuln_len = witness_len(run_offline_phase(vuln));
  EXPECT_GT(plain_len, 2u);  // indirect, through the load datapath
  EXPECT_EQ(vuln_len, 2u);   // direct leakage edge
}

TEST(Offline, RtlPathAgreesWithStructuralPath) {
  sim::CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  const auto structural = run_offline_phase(cfg);
  const auto rtl = run_offline_phase_rtl(sim::emit_structural_verilog(cfg),
                                         "core", ift::ArchRegDb::riscv());
  EXPECT_EQ(rtl.pdlc.size(), structural.pdlc.size());
}

// -------------------------------------------------------- LP coverage ----

TEST(LpCoverage, GrowsDuringFuzzing) {
  const CampaignResult res = Session(serial_spec(11, 60)).run();
  ASSERT_EQ(res.history.size(), 60u);
  EXPECT_GT(res.history.back().covered_pdlc, 0u);
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i].covered_pdlc, res.history[i - 1].covered_pdlc);
  }
}

TEST(LpCoverage, EndpointPolicyCoversAtLeastAsMuch) {
  const OfflineResult off = run_offline_phase(sim::CoreConfig{});
  sim::Simulator simulator{sim::CoreConfig{}};
  util::Rng rng(3);
  const auto seed = fuzz::make_branch_mispredict_seed(rng);
  const auto run = simulator.run(seed.program);
  const auto windows = extract_mst(run.trace);

  LpCoverageMap all(off.ifg, off.pdlc, simulator.signal_db(),
                    LpPolicy::kAllSignals);
  LpCoverageMap endpoints(off.ifg, off.pdlc, simulator.signal_db(),
                          LpPolicy::kEndpoints);
  all.update(run.trace, windows);
  endpoints.update(run.trace, windows);
  EXPECT_GE(endpoints.covered(), all.covered());
  EXPECT_EQ(all.total(), off.pdlc.size());
}

TEST(LpCoverage, DeltaPathMatchesDenseReferencePath) {
  const OfflineResult off = run_offline_phase(sim::CoreConfig{});
  sim::CoreConfig cfg;
  cfg.record_dense_trace = true;
  sim::Simulator simulator{cfg};
  util::Rng rng(4);
  const auto seed = fuzz::make_bti_seed(rng);
  const auto run = simulator.run(seed.program);
  ASSERT_NE(run.dense_trace, nullptr);
  const auto windows = extract_mst(run.trace);
  LpCoverageMap a(off.ifg, off.pdlc, simulator.signal_db());
  LpCoverageMap b(off.ifg, off.pdlc, simulator.signal_db());
  a.update(run.trace, windows);
  b.update(*run.dense_trace, windows);
  EXPECT_EQ(a.covered(), b.covered());
}

// -------------------------------------------------------------- campaign --

TEST(Campaign, IsDeterministic) {
  const auto r1 = Session(serial_spec(21, 40)).run();
  const auto r2 = Session(serial_spec(21, 40)).run();
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].covered_pdlc, r2.history[i].covered_pdlc);
    EXPECT_EQ(r1.history[i].coverage_points, r2.history[i].coverage_points);
  }
  EXPECT_EQ(r1.vulns.size(), r2.vulns.size());
}

TEST(Campaign, StopConditionEndsEarly) {
  Session session(serial_spec(22, 1000));
  session.add_stop(Session::stop_after_iterations(7));
  const auto res = session.run();
  EXPECT_EQ(res.history.size(), 7u);
}

TEST(Campaign, FindsZenbleedByFuzzing) {
  // With the emulation armed, the fuzzer must find the Zenbleed leak in a
  // bounded number of iterations (CSR writes to zenbleed_en are in the
  // mutation vocabulary).
  CampaignSpec spec = serial_spec(1, 3500);
  spec.core.vuln.zenbleed_emulation = true;
  Session session(spec);
  session.add_stop(Session::stop_on_finding("core.rf."));
  const auto res = session.run();
  bool found = false;
  for (const auto& [key, iter] : res.first_detection) {
    found |= key.find("core.rf.") != std::string::npos;
  }
  EXPECT_TRUE(found) << "zenbleed not found within 3500 iterations";
}

TEST(Campaign, MstSampleCollected) {
  const auto res = Session(serial_spec(23, 30)).run();
  EXPECT_GT(res.total_windows, 0u);
  EXPECT_GT(res.mispredicted_windows, 0u);
  EXPECT_FALSE(res.mst_sample.empty());
  for (const auto& w : res.mst_sample) EXPECT_TRUE(w.mispredicted);
}

TEST(Campaign, FindingKeysStable) {
  VulnReport r;
  r.kind = VulnKind::kDirectLeak;
  r.sink_signal = "core.rf.x7";
  EXPECT_EQ(finding_key(r), "direct-leak:core.rf.x7");
  r.kind = VulnKind::kCacheResidue;
  r.sink_signal = "core.dcache";
  EXPECT_EQ(finding_key(r), "cache-residue:core.dcache:conditional");
  r.window.opener_insts.push_back(riscv::enc_i(Op::kJalr, 0, 1, 0));
  EXPECT_EQ(finding_key(r), "cache-residue:core.dcache:indirect");
}

}  // namespace
}  // namespace specure::core
