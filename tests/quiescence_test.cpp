// The quiescence rule (CoreConfig::quiet_cycles) against its oracle, the
// ceiling-only run (quiet_cycles = 0).
//
// A run that goes quiescent stops early but must not diverge: everything
// it recorded is what the ceiling-only run of the same program records up
// to that cycle. A run that does not go quiescent is the ceiling-only run.
// The directed cases pin what holds a run open: a first commit of a PC,
// the two architectural leak events, an armed (M)WAIT countdown, and the
// max_cycles ceiling.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "fuzz/corpus.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"

namespace specure::sim {
namespace {

namespace csr = riscv::csr;
using riscv::ProgramBuilder;

constexpr std::uint8_t T0 = 5, T1 = 6, T2 = 7, A0 = 10;
constexpr std::uint32_t kFence = 0x0ff0000f;

CoreConfig ceiling_only(CoreConfig cfg) {
  cfg.quiet_cycles = 0;
  return cfg;
}

/// Cycle of the last commit of a PC not committed before (0 if none).
std::uint64_t last_first_commit(const RunResult& res) {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t last = 0;
  for (const CommitRecord& c : res.commits) {
    if (seen.insert(c.pc).second) last = c.cycle;
  }
  return last;
}

void expect_same_commit(const CommitRecord& a, const CommitRecord& b) {
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.inst, b.inst);
  EXPECT_EQ(a.writes_rd, b.writes_rd);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.writes_csr, b.writes_csr);
  EXPECT_EQ(a.csr, b.csr);
  EXPECT_EQ(a.is_store, b.is_store);
  EXPECT_EQ(a.store_addr, b.store_addr);
}

/// The first `ticks` trace ticks of `a` and `b` hold the same events.
void expect_same_ticks(const snapshot::Trace& a, const snapshot::Trace& b,
                       std::size_t ticks) {
  ASSERT_GE(a.size(), ticks);
  ASSERT_GE(b.size(), ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    ASSERT_EQ(a.cycle_at(t), b.cycle_at(t)) << "tick " << t;
    const std::size_t events = a.tick_end(t) - a.tick_begin(t);
    ASSERT_EQ(events, b.tick_end(t) - b.tick_begin(t))
        << "cycle " << a.cycle_at(t);
    for (std::size_t i = 0; i < events; ++i) {
      const std::size_t ea = a.tick_begin(t) + i, eb = b.tick_begin(t) + i;
      ASSERT_EQ(a.event_id(ea), b.event_id(eb)) << "cycle " << a.cycle_at(t);
      ASSERT_EQ(a.event_value(ea), b.event_value(eb))
          << "cycle " << a.cycle_at(t);
    }
  }
}

struct StreamCase {
  const char* name;
  CoreConfig cfg;
  /// Without the (M)WAIT and Zenbleed emulations nothing but a first
  /// commit restarts the horizon, so a quiescent run ends exactly
  /// quiet_cycles after its last one; with them a leak event or an armed
  /// countdown can hold it open longer.
  bool exact_horizon;
};

CoreConfig rob8() {
  CoreConfig cfg;
  cfg.rob_entries = 8;
  return cfg;
}

CoreConfig full_core() {
  CoreConfig cfg;
  EXPECT_TRUE(lookup_core_preset("full", cfg));
  return cfg;
}

/// The golden fuzz stream: the first 200 programs of the seed-1 fuzzer,
/// with every fifth fed back.
std::vector<riscv::Program> golden_stream() {
  fuzz::Fuzzer fuzzer(fuzz::FuzzerOptions{}, 1);
  std::vector<riscv::Program> programs;
  for (int i = 1; i <= 200; ++i) {
    programs.push_back(fuzzer.next());
    if (i % 5 == 0) fuzzer.report_interesting(programs.back());
  }
  return programs;
}

TEST(Quiescence, RunIsAPrefixOfItsCeilingOnlyRun) {
  const std::vector<riscv::Program> programs = golden_stream();
  const StreamCase cases[] = {
      {"default", CoreConfig{}, true},
      {"rob_entries=8", rob8(), true},
      {"full", full_core(), false},
  };
  for (const StreamCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Simulator sim(c.cfg);
    const Simulator oracle(ceiling_only(c.cfg));
    RunResult res(&sim.signal_db());
    RunResult ref(&oracle.signal_db());
    std::size_t quiescent = 0;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      SCOPED_TRACE("program " + std::to_string(p));
      sim.run(programs[p], res);
      oracle.run(programs[p], ref);
      ASSERT_FALSE(ref.quiescent);
      if (!res.quiescent) {
        ASSERT_EQ(res.cycles, ref.cycles);
        ASSERT_EQ(res.halted_clean, ref.halted_clean);
        ASSERT_EQ(res.instructions_committed, ref.instructions_committed);
        ASSERT_EQ(res.commits.size(), ref.commits.size());
        for (std::size_t i = 0; i < res.commits.size(); ++i) {
          expect_same_commit(res.commits[i], ref.commits[i]);
        }
        ASSERT_EQ(res.trace.size(), ref.trace.size());
        expect_same_ticks(res.trace, ref.trace, ref.trace.size());
        EXPECT_EQ(res.coverage.points(), ref.coverage.points());
        EXPECT_EQ(res.coverage.toggle_bits(), ref.coverage.toggle_bits());
        EXPECT_EQ(res.final_data, ref.final_data);
        continue;
      }
      ++quiescent;
      EXPECT_FALSE(res.halted_clean);
      ASSERT_LT(res.cycles, ref.cycles);
      // Commits through the last simulated cycle are the oracle's.
      std::size_t prefix = 0;
      while (prefix < ref.commits.size() &&
             ref.commits[prefix].cycle <= res.cycles) {
        ++prefix;
      }
      ASSERT_EQ(res.commits.size(), prefix);
      for (std::size_t i = 0; i < prefix; ++i) {
        expect_same_commit(res.commits[i], ref.commits[i]);
      }
      // One tick per simulated cycle; the oracle's next tick is later.
      ASSERT_EQ(res.trace.cycle_at(res.trace.size() - 1), res.cycles);
      ASSERT_GT(ref.trace.size(), res.trace.size());
      expect_same_ticks(res.trace, ref.trace, res.trace.size());
      EXPECT_EQ(res.coverage.points() & ~ref.coverage.points(), 0u);
      EXPECT_LE(res.coverage.toggle_bits(), ref.coverage.toggle_bits());
      const std::uint64_t quiet_since = last_first_commit(res);
      if (c.exact_horizon) {
        EXPECT_EQ(res.cycles, quiet_since + c.cfg.quiet_cycles);
      } else {
        EXPECT_GE(res.cycles, quiet_since + c.cfg.quiet_cycles);
      }
    }
    EXPECT_GT(quiescent, 0u);
  }
}

/// `setup`, then a jump-to-self.
riscv::Program spin_after(ProgramBuilder b) {
  b.label("spin");
  b.jal(0, "spin");
  return b.build();
}

TEST(Quiescence, JumpToSelfEndsOneHorizonAfterItsLastNewPc) {
  const CoreConfig cfg;
  ProgramBuilder b;
  b.li(T0, 3).addi(T1, T0, 4);
  const riscv::Program program = spin_after(b);
  const Simulator sim(cfg);
  const RunResult res = sim.run(program);
  EXPECT_TRUE(res.quiescent);
  EXPECT_FALSE(res.halted_clean);
  EXPECT_EQ(res.cycles, last_first_commit(res) + cfg.quiet_cycles);

  const Simulator oracle(ceiling_only(cfg));
  const RunResult ref = oracle.run(program);
  EXPECT_FALSE(ref.quiescent);
  EXPECT_EQ(ref.cycles, cfg.max_cycles);
}

TEST(Quiescence, ArmedCountdownHoldsTheRunOpenUntilItWakes) {
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  cfg.mwait_timer_start = cfg.quiet_cycles + 1000;
  cfg.max_cycles = 2 * cfg.mwait_timer_start;
  ProgramBuilder b;
  b.csrrwi(0, csr::kMwaitEn, 1);
  const riscv::Program program = spin_after(b);
  const Simulator sim(cfg);
  const RunResult res = sim.run(program);
  ASSERT_TRUE(res.quiescent);
  EXPECT_GT(res.cycles, last_first_commit(res) + cfg.quiet_cycles);

  // It ends on the cycle the countdown reaches one, the oracle's first
  // cycle with the timer at one.
  const snapshot::SignalId timer =
      sim.signal_db().id_of("core.csr.mwait_timer");
  const Simulator oracle(ceiling_only(cfg));
  const RunResult ref = oracle.run(program);
  std::uint64_t woke = 0;
  for (std::size_t t = 0; t < ref.trace.size() && woke == 0; ++t) {
    if (ref.trace[t][timer] == 1) woke = ref.trace.cycle_at(t);
  }
  EXPECT_EQ(res.cycles, woke);
  EXPECT_EQ(res.trace[res.trace.size() - 1][timer], 1u);
}

bool rollback_suppressed(const RunResult& res) {
  CoverageRecorder point;
  point.hit(CoverageSite::kRenameRollbackSuppressed, true);
  return (res.coverage.points() & point.points()) != 0;
}

/// Arms Zenbleed (when `arm`), then loops forever through a JALR whose
/// target alternates, so the BTB, which predicts the last target, is
/// always wrong. Both targets begin with a FENCE, which waits for the ROB
/// to drain, so the wrong path renames nothing.
riscv::Program alternating_jalr(bool arm) {
  ProgramBuilder b;
  if (arm) b.li(T0, 1).csrrw(0, csr::kZenbleedEn, T0);
  b.la(T1, "a").la(T2, "b").xor_(T2, T1, T2);
  b.label("loop");
  b.xor_(T1, T1, T2);
  b.jalr(0, T1, 0);
  b.label("a");
  b.raw(kFence).jal(0, "loop");
  b.label("b");
  b.raw(kFence).jal(0, "loop");
  return b.build();
}

TEST(Quiescence, SuppressedRollbacksHoldTheRunOpenToTheCeiling) {
  CoreConfig cfg;
  cfg.vuln.zenbleed_emulation = true;
  const Simulator sim(cfg);
  const RunResult leaking = sim.run(alternating_jalr(true));
  EXPECT_TRUE(rollback_suppressed(leaking));
  EXPECT_FALSE(leaking.quiescent);
  EXPECT_EQ(leaking.cycles, cfg.max_cycles);

  // The same loop with its rollbacks restored goes quiescent.
  const RunResult restored = sim.run(alternating_jalr(false));
  EXPECT_FALSE(rollback_suppressed(restored));
  EXPECT_TRUE(restored.quiescent);
  EXPECT_EQ(restored.cycles, last_first_commit(restored) + cfg.quiet_cycles);
}

/// Monitors the first data line, arms (M)WAIT, then stores forever to
/// the line at `offset`.
riscv::Program store_loop(std::int64_t offset) {
  ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.csrrw(0, csr::kMonitorAddr, A0);
  b.li(T0, 1).csrrw(0, csr::kMwaitEn, T0);
  b.label("loop");
  b.sd(T0, A0, offset);
  b.jal(0, "loop");
  return b.build();
}

TEST(Quiescence, MonitoredLineClearsHoldTheRunOpenToTheCeiling) {
  CoreConfig cfg;
  cfg.vuln.mwait_emulation = true;
  const Simulator sim(cfg);
  const RunResult leaking = sim.run(store_loop(0));
  EXPECT_FALSE(leaking.quiescent);
  EXPECT_EQ(leaking.cycles, cfg.max_cycles);

  // Stores to another line leave the timer to count down; once it wakes
  // the run goes quiescent.
  const RunResult elsewhere = sim.run(store_loop(0x100));
  EXPECT_TRUE(elsewhere.quiescent);
  EXPECT_LT(elsewhere.cycles, cfg.max_cycles);
}

TEST(Quiescence, CeilingBelowTheHorizonEndsTheRunAtTheCeiling) {
  const riscv::Program spin = spin_after(ProgramBuilder{});
  CoreConfig low;
  low.max_cycles = low.quiet_cycles / 2;
  const Simulator below(low);
  const RunResult res = below.run(spin);
  EXPECT_FALSE(res.quiescent);
  EXPECT_FALSE(res.halted_clean);
  EXPECT_EQ(res.cycles, low.max_cycles);

  // A horizon that runs out on the ceiling cycle itself: the run counts
  // as capped, not quiescent, so the two ways to stop never overlap.
  CoreConfig exact;
  exact.max_cycles = Simulator(exact).run(spin).cycles;
  const Simulator at(exact);
  const RunResult at_ceiling = at.run(spin);
  EXPECT_FALSE(at_ceiling.quiescent);
  EXPECT_EQ(at_ceiling.cycles, exact.max_cycles);
}

}  // namespace
}  // namespace specure::sim
