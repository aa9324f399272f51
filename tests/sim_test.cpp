#include <gtest/gtest.h>

#include <set>

#include "riscv/program.hpp"
#include "rtl/parser.hpp"
#include "sim/core.hpp"
#include "sim/structure.hpp"

namespace specure::sim {
namespace {

namespace csr = riscv::csr;
using riscv::Op;
using riscv::Program;
using riscv::ProgramBuilder;

constexpr std::uint8_t A0 = 10, A1 = 11, T0 = 5, T1 = 6, T2 = 7, RA = 1;

std::uint64_t final_sig(const RunResult& res, const snapshot::SignalDb& db,
                        const std::string& name) {
  return res.trace[res.trace.size() - 1].values[db.id_of(name)];
}

std::uint64_t final_x(const RunResult& res, const snapshot::SignalDb& db,
                      unsigned reg) {
  return final_sig(res, db, "core.rf.x" + std::to_string(reg));
}

/// Build a program that triggers one guaranteed misprediction (PHT starts
/// weakly-not-taken, the branch is always taken) with `wrong_path`
/// instructions on the squashed fall-through path.
Program mispredict_program(const std::vector<std::uint32_t>& wrong_path,
                           const std::vector<std::uint32_t>& prologue = {}) {
  ProgramBuilder b;
  for (auto w : prologue) b.raw(w);
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 1);
  b.branch(Op::kBeq, T0, T0, "target");  // always taken, predicted not-taken
  for (auto w : wrong_path) b.raw(w);
  b.label("target");
  b.nop();
  b.ecall();
  return b.build();
}

TEST(Sim, AluBasics) {
  ProgramBuilder b;
  b.li(T0, 40).li(T1, 2).add(T2, T0, T1).ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_TRUE(res.halted_clean);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 42u);
}

struct AluCase {
  const char* name;
  Op op;
  std::int64_t a, b;
  std::uint64_t expected;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, RegisterRegister) {
  const AluCase& c = GetParam();
  ProgramBuilder b;
  b.li(T0, c.a).li(T1, c.b).raw(riscv::enc_r(c.op, T2, T0, T1)).ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table, AluSemantics,
    ::testing::Values(
        AluCase{"add", Op::kAdd, 5, 7, 12},
        AluCase{"add_negative", Op::kAdd, -5, 2,
                static_cast<std::uint64_t>(-3)},
        AluCase{"sub", Op::kSub, 5, 7, static_cast<std::uint64_t>(-2)},
        AluCase{"sll", Op::kSll, 1, 12, 1u << 12},
        AluCase{"slt_true", Op::kSlt, -1, 0, 1},
        AluCase{"slt_false", Op::kSlt, 0, -1, 0},
        AluCase{"sltu_wraps", Op::kSltu, -1, 1, 0},
        AluCase{"xor", Op::kXor, 0xff, 0x0f, 0xf0},
        AluCase{"srl", Op::kSrl, 0x100, 4, 0x10},
        AluCase{"sra_negative", Op::kSra, -16, 2,
                static_cast<std::uint64_t>(-4)},
        AluCase{"or", Op::kOr, 0xf0, 0x0f, 0xff},
        AluCase{"and", Op::kAnd, 0xfc, 0x3f, 0x3c},
        AluCase{"addw_truncates", Op::kAddw, 0x7fffffff, 1,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(INT32_MIN))},
        AluCase{"subw", Op::kSubw, 0, 1, static_cast<std::uint64_t>(-1)},
        AluCase{"mul", Op::kMul, 6, 7, 42},
        AluCase{"mulh", Op::kMulh, -1, -1, 0},
        AluCase{"div", Op::kDiv, 42, 6, 7},
        AluCase{"div_by_zero", Op::kDivu, 42, 0, ~0ULL},
        AluCase{"rem", Op::kRem, 43, 6, 1},
        AluCase{"rem_by_zero", Op::kRem, 43, 0, 43}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Sim, StoreLoadRoundTrip) {
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 0x1122334455667788LL);
  b.sd(T0, A0, 16);
  b.ld(T1, A0, 16);
  b.ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_x(res, sim.signal_db(), T1), 0x1122334455667788ULL);
}

TEST(Sim, LoadSignExtension) {
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 0xff);
  b.raw(riscv::enc_s(Op::kSb, A0, T0, 0));
  b.lb(T1, A0, 0);                        // sign-extended: -1
  b.raw(riscv::enc_i(Op::kLbu, T2, A0, 0));  // zero-extended: 255
  b.ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_x(res, sim.signal_db(), T1), ~0ULL);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0xffu);
}

TEST(Sim, InitialDataImageVisible) {
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.ld(T0, A0, 8);
  b.ecall();
  b.data_u64(8, 0xdeadbeefcafef00dULL);
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_x(res, sim.signal_db(), T0), 0xdeadbeefcafef00dULL);
}

TEST(Sim, BranchDirections) {
  // Taken branch skips the poison write; not-taken branch executes it.
  for (bool equal : {true, false}) {
    ProgramBuilder b;
    b.li(T0, 1).li(T1, equal ? 1 : 2);
    b.branch(Op::kBeq, T0, T1, "skip");
    b.li(T2, 99);
    b.label("skip");
    b.ecall();
    Simulator sim{CoreConfig{}};
    const RunResult res = sim.run(b.build());
    EXPECT_EQ(final_x(res, sim.signal_db(), T2), equal ? 0u : 99u);
  }
}

TEST(Sim, CountdownLoopCommits) {
  ProgramBuilder b;
  b.li(T0, 5).li(T1, 0);
  b.label("loop");
  b.addi(T1, T1, 3);
  b.addi(T0, T0, -1);
  b.branch(Op::kBne, T0, 0, "loop");
  b.ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_TRUE(res.halted_clean);
  EXPECT_EQ(final_x(res, sim.signal_db(), T1), 15u);
}

TEST(Sim, MispredictionRollsBackArchState) {
  const Program p = mispredict_program({
      riscv::enc_i(Op::kAddi, T2, 0, 99),  // wrong-path write to x7
  });
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(p);
  EXPECT_TRUE(res.halted_clean);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0u);
}

TEST(Sim, SquashedInstructionsDoNotCommit) {
  const Program p = mispredict_program({
      riscv::enc_i(Op::kAddi, T2, 0, 99),
  });
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(p);
  for (const auto& c : res.commits) {
    EXPECT_NE(c.inst, riscv::enc_i(Op::kAddi, T2, 0, 99))
        << "squashed instruction leaked into the commit stream";
  }
}

TEST(Sim, SpeculativeWindowVisibleInSnapshots) {
  const Program p = mispredict_program({riscv::enc_nop()});
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(p);
  const auto& db = sim.signal_db();
  const auto unsafe_id = db.id_of("core.rob.unsafe");
  const auto mispred_id = db.id_of("core.rob.brupdate_mispredict");
  bool saw_window = false, saw_mispredict = false;
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    saw_window |= res.trace[i].values[unsafe_id] != 0;
    saw_mispredict |= res.trace[i].values[mispred_id] != 0;
  }
  EXPECT_TRUE(saw_window);
  EXPECT_TRUE(saw_mispredict);
}

TEST(Sim, SpecInstReportsWindowOpener) {
  ProgramBuilder b;
  b.li(T0, 1);
  b.branch(Op::kBeq, T0, T0, "t");
  b.nop();
  b.label("t");
  b.ecall();
  const Program p = b.build();
  // Find the branch word.
  std::uint32_t branch_word = 0;
  for (auto w : p.code) {
    if (riscv::is_branch(riscv::decode(w).op)) branch_word = w;
  }
  ASSERT_NE(branch_word, 0u);
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(p);
  const auto inst_id = sim.signal_db().id_of("core.rob.spec_inst");
  bool seen = false;
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    seen |= res.trace[i].values[inst_id] == branch_word;
  }
  EXPECT_TRUE(seen);
}

TEST(Sim, WrongPathLoadLeavesCacheResidue) {
  // The wrong path loads from kDataBase+0x200; nothing on the correct path
  // touches that line. Spectre residue: the fill must survive the squash.
  const std::uint64_t target = riscv::kDataBase + 0x200;
  const Program p = mispredict_program({
      riscv::enc_i(Op::kLd, T2, A0, 0x200),
  });
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(p);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0u) << "load must be squashed";
  const auto& db = sim.signal_db();
  const auto& last = res.trace[res.trace.size() - 1];
  bool resident = false;
  const CoreConfig cfg;
  for (unsigned s = 0; s < cfg.dcache_sets; ++s) {
    for (unsigned w = 0; w < cfg.dcache_ways; ++w) {
      const std::string base =
          "core.dcache.tag_" + std::to_string(s) + "_" + std::to_string(w);
      const std::string vbase =
          "core.dcache.valid_" + std::to_string(s) + "_" + std::to_string(w);
      if (last.values[db.id_of(vbase)] != 0 &&
          last.values[db.id_of(base)] ==
              (target & ~static_cast<std::uint64_t>(cfg.dcache_line_bytes - 1))) {
        resident = true;
      }
    }
  }
  EXPECT_TRUE(resident) << "speculative fill did not persist";
}

TEST(Sim, ZenbleedSuppressesRollback) {
  ProgramBuilder setup;
  setup.li(T1, 1);
  setup.csrrw(0, csr::kZenbleedEn, T1);
  const auto prologue = setup.build().code;
  const Program p = mispredict_program(
      {riscv::enc_i(Op::kAddi, T2, 0, 99)}, prologue);

  CoreConfig cfg;
  cfg.vuln.zenbleed_emulation = true;
  Simulator sim{cfg};
  const RunResult res = sim.run(p);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 99u)
      << "Zenbleed: wrong-path write must persist architecturally";
}

TEST(Sim, ZenbleedInactiveWithoutCsrArm) {
  // Emulation compiled in but zenbleed_en == 0: normal rollback.
  const Program p = mispredict_program({riscv::enc_i(Op::kAddi, T2, 0, 99)});
  CoreConfig cfg;
  cfg.vuln.zenbleed_emulation = true;
  Simulator sim{cfg};
  const RunResult res = sim.run(p);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0u);
}

TEST(Sim, ZenbleedInactiveWithoutEmulation) {
  ProgramBuilder setup;
  setup.li(T1, 1);
  setup.csrrw(0, csr::kZenbleedEn, T1);
  const Program p = mispredict_program({riscv::enc_i(Op::kAddi, T2, 0, 99)},
                                       setup.build().code);
  Simulator sim{CoreConfig{}};  // emulation off
  const RunResult res = sim.run(p);
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0u);
}

TEST(Sim, MwaitSpeculativeLoadClearsTimer) {
  // Arm the monitor on kDataBase+0x300, then let a *squashed* wrong-path
  // load fill that line: the timer must drop to 0/1 although the load
  // never architecturally executed — the paper's (M)WAIT leak.
  ProgramBuilder setup;
  setup.li(A1, static_cast<std::int64_t>(riscv::kDataBase + 0x300));
  setup.csrrw(0, csr::kMonitorAddr, A1);
  setup.li(T1, 1);
  setup.csrrw(0, csr::kMwaitEn, T1);
  const Program p = mispredict_program({riscv::enc_i(Op::kLd, T2, A0, 0x300)},
                                       setup.build().code);
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  Simulator sim{cfg};
  const RunResult res = sim.run(p);
  const std::uint64_t timer =
      final_sig(res, sim.signal_db(), "core.csr.mwait_timer");
  EXPECT_LE(timer, 1u) << "monitored-line change must clear the timer";
}

TEST(Sim, MwaitTimerCountsDownWithoutTrigger) {
  ProgramBuilder b;
  b.li(T1, 1);
  b.csrrw(0, csr::kMwaitEn, T1);
  for (int i = 0; i < 8; ++i) b.nop();
  b.ecall();
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  Simulator sim{cfg};
  const RunResult res = sim.run(b.build());
  const std::uint64_t timer =
      final_sig(res, sim.signal_db(), "core.csr.mwait_timer");
  EXPECT_GT(timer, 1u);
  EXPECT_LT(timer, cfg.mwait_timer_start);
}

TEST(Sim, MwaitCommittedStoreAlsoClears) {
  // Committed store to the monitored line: the *intended* wake behaviour.
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(A1, static_cast<std::int64_t>(riscv::kDataBase + 0x40));
  b.csrrw(0, csr::kMonitorAddr, A1);
  b.li(T1, 1);
  b.csrrw(0, csr::kMwaitEn, T1);
  b.li(T0, 7);
  b.sd(T0, A0, 0x40);
  b.ecall();
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  Simulator sim{cfg};
  const RunResult res = sim.run(b.build());
  EXPECT_LE(final_sig(res, sim.signal_db(), "core.csr.mwait_timer"), 1u);
}

TEST(Sim, MwaitDisabledNoTimerActivity) {
  ProgramBuilder b;
  b.li(T1, 1);
  b.csrrw(0, csr::kMwaitEn, T1);
  for (int i = 0; i < 4; ++i) b.nop();
  b.ecall();
  Simulator sim{CoreConfig{}};  // mwait emulation off
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_sig(res, sim.signal_db(), "core.csr.mwait_timer"), 0u);
}

TEST(Sim, CsrReadWriteSemantics) {
  ProgramBuilder b;
  b.li(T0, 0xf0);
  b.csrrw(0, csr::kMscratch, T0);      // mscratch = 0xf0
  b.li(T1, 0x0f);
  b.csrrs(T2, csr::kMscratch, T1);     // T2 = 0xf0; mscratch |= 0x0f
  b.csrrs(28, csr::kMscratch, 0);      // x28 = 0xff
  b.ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(final_x(res, sim.signal_db(), T2), 0xf0u);
  EXPECT_EQ(final_x(res, sim.signal_db(), 28), 0xffu);
}

TEST(Sim, JalAndJalrCallReturn) {
  ProgramBuilder b;
  b.li(T0, 0);
  b.jal(RA, "func");
  b.addi(T0, T0, 1);   // executes after return
  b.ecall();
  b.label("func");
  b.addi(T0, T0, 7);
  b.jalr(0, RA, 0);
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_TRUE(res.halted_clean);
  EXPECT_EQ(final_x(res, sim.signal_db(), T0), 8u);
}

TEST(Sim, IllegalInstructionHalts) {
  ProgramBuilder b;
  b.nop().raw(0xffffffff).nop();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_TRUE(res.halted_clean);
  // The trailing nop must not commit.
  EXPECT_EQ(res.instructions_committed, 2u);  // nop + illegal(trap)
}

TEST(Sim, MaxCyclesBoundsInfiniteLoop) {
  ProgramBuilder b;
  b.label("spin");
  b.jal(0, "spin");
  CoreConfig cfg;
  cfg.max_cycles = 300;
  Simulator sim{cfg};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(res.cycles, 300u);
  EXPECT_FALSE(res.halted_clean);
}

TEST(Sim, DeterministicAcrossRuns) {
  util::Rng rng(31337);
  const Program p = riscv::random_program(rng, 80);
  Simulator sim{CoreConfig{}};
  const RunResult r1 = sim.run(p);
  const RunResult r2 = sim.run(p);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    ASSERT_EQ(r1.trace[i].values, r2.trace[i].values) << "cycle " << i;
  }
  EXPECT_EQ(r1.commits.size(), r2.commits.size());
}

TEST(Sim, RandomProgramsTerminate) {
  util::Rng rng(4242);
  Simulator sim{CoreConfig{}};
  for (int i = 0; i < 25; ++i) {
    const Program p = riscv::random_program(rng, 1 + rng.below(120));
    const RunResult res = sim.run(p);
    EXPECT_LE(res.cycles, CoreConfig{}.max_cycles);
    EXPECT_EQ(res.trace.size(), res.cycles);
  }
}

TEST(Sim, DirtyIdsCoverEveryEventAfterTheFirstTick) {
  // Every trace event after the first-tick sweep comes from an id the
  // capture walked, so the walk count bounds the event count.
  util::Rng rng(4243);
  Simulator sim{CoreConfig{}};
  for (int i = 0; i < 10; ++i) {
    const RunResult res = sim.run(riscv::random_program(rng, 16 + 16 * i));
    ASSERT_GT(res.trace.size(), 1u);
    const std::uint64_t later_events =
        res.trace.event_count() - res.trace.tick_end(0);
    EXPECT_GT(later_events, 0u);
    EXPECT_GE(res.dirty_ids, later_events) << "program " << i;
  }
}

TEST(Sim, CoverageAccumulates) {
  util::Rng rng(7);
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(riscv::random_program(rng, 60));
  EXPECT_GT(res.coverage.point_count(), 0u);
  EXPECT_GT(res.coverage.toggle_bits(), 0u);
}

TEST(Sim, CommitLogMatchesCommittedCount) {
  ProgramBuilder b;
  b.li(T0, 3).addi(T0, T0, 1).ecall();
  Simulator sim{CoreConfig{}};
  const RunResult res = sim.run(b.build());
  EXPECT_EQ(res.commits.size(), res.instructions_committed);
  // Commit cycles must be monotonically non-decreasing.
  for (std::size_t i = 1; i < res.commits.size(); ++i) {
    EXPECT_LE(res.commits[i - 1].cycle, res.commits[i].cycle);
  }
}

// ------------------------------------------------------------ structure --

TEST(Structure, SignalsMatchSignalDb) {
  const CoreConfig cfg;
  Simulator sim{cfg};
  const auto descs = describe_signals(cfg);
  ASSERT_EQ(sim.signal_db().size(), descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    EXPECT_EQ(sim.signal_db().info(static_cast<std::uint32_t>(i)).name,
              descs[i].name);
  }
}

TEST(Structure, IfgContainsVulnPathsOnlyWhenConfigured) {
  CoreConfig plain;
  const ift::Ifg g0 = build_ifg(plain);
  CoreConfig vuln = plain;
  vuln.vuln.mwait_emulation = true;
  vuln.vuln.zenbleed_emulation = true;
  const ift::Ifg g1 = build_ifg(vuln);

  auto has_edge = [](const ift::Ifg& g, const std::string& a,
                     const std::string& b) {
    const auto ia = g.find(a), ib = g.find(b);
    if (ia == ift::kInvalidNode || ib == ift::kInvalidNode) return false;
    for (auto s : g.successors(ia)) {
      if (s == ib) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_edge(g0, "core.dcache.valid_0_0", "core.csr.mwait_timer"));
  EXPECT_TRUE(has_edge(g1, "core.dcache.valid_0_0", "core.csr.mwait_timer"));
  EXPECT_FALSE(has_edge(g0, "core.csr.zenbleed_en",
                        "core.rename.maptable_5"));
  EXPECT_TRUE(has_edge(g1, "core.csr.zenbleed_en",
                       "core.rename.maptable_5"));
}

TEST(Structure, IfgRolesLabeled) {
  const ift::Ifg g = build_ifg(CoreConfig{});
  EXPECT_EQ(g.node(g.id_of("core.rf.x7")).role, ift::Role::kArchitectural);
  EXPECT_EQ(g.node(g.id_of("core.csr.mstatus")).role,
            ift::Role::kArchitectural);
  EXPECT_EQ(g.node(g.id_of("core.prf.p9")).role,
            ift::Role::kMicroarchitectural);
  EXPECT_EQ(g.node(g.id_of("core.exec.result")).role, ift::Role::kWire);
}

TEST(Structure, VerilogRoundTripsThroughRtlFrontend) {
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  cfg.vuln.zenbleed_emulation = true;
  const std::string verilog = emit_structural_verilog(cfg);
  const auto design = rtl::parse(verilog);
  const auto elab = rtl::elaborate(design, "core");

  auto flat = [](std::string name) {
    for (char& c : name) {
      if (c == '.') c = '$';
    }
    return "core." + name;
  };

  // Every structural signal must exist with the right width and register
  // flag; every structural flow must exist as an elaborated flow.
  const ift::Ifg g = build_ifg(cfg);
  // +1: the generated module's clk input (clocks carry no flow).
  ASSERT_EQ(elab.signal_count(), g.node_count() + 1);
  for (ift::NodeId i = 0; i < g.node_count(); ++i) {
    const auto* sig = elab.find(flat(g.node(i).name));
    ASSERT_NE(sig, nullptr) << g.node(i).name;
    EXPECT_EQ(sig->width, g.node(i).width) << g.node(i).name;
    EXPECT_EQ(sig->is_register, g.node(i).is_register) << g.node(i).name;
  }
  std::set<std::pair<std::string, std::string>> elab_flows;
  for (const auto& [s, t] : elab.flows()) {
    elab_flows.emplace(elab.signals()[s].name, elab.signals()[t].name);
  }
  std::size_t structural_edges = 0;
  for (ift::NodeId i = 0; i < g.node_count(); ++i) {
    for (ift::NodeId j : g.successors(i)) {
      EXPECT_TRUE(
          elab_flows.count({flat(g.node(i).name), flat(g.node(j).name)}))
          << g.node(i).name << " -> " << g.node(j).name;
      ++structural_edges;
    }
  }
  EXPECT_EQ(elab_flows.size(), structural_edges);
}

}  // namespace
}  // namespace specure::sim
