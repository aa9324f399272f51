// The simulator's cycle loop makes no heap allocation.
//
// This binary replaces the global operator new with a counting one, so it
// is its own test executable. It counts the allocations one
// Simulator::run makes into a warmed, reused RunResult. A run still builds
// a fresh Core, which allocates a fixed amount; anything the loop
// allocates per cycle would make a long run cost more than a short one,
// whether it ends at its ECALL or once it goes quiescent.
//
// AddressSanitizer and ThreadSanitizer supply their own operator new, so
// under them the replacement is left out and the test skips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "riscv/program.hpp"
#include "sim/core.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPECURE_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPECURE_COUNTING_NEW 0
#endif
#endif
#ifndef SPECURE_COUNTING_NEW
#define SPECURE_COUNTING_NEW 1
#endif

namespace {
std::size_t g_allocations = 0;
}  // namespace

#if SPECURE_COUNTING_NEW
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace specure::sim {
namespace {

constexpr std::uint8_t A0 = 10, T0 = 5, T1 = 6, T2 = 7;

/// A `trips`-iteration loop that loads, stores and branches every trip
/// (the backward branch mispredicts at least on entry and on exit, so
/// squashes and map-table rollbacks run too).
riscv::Program loop_program(std::int64_t trips) {
  riscv::ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, trips).li(T1, 0);
  b.label("loop");
  b.ld(T2, A0, 0);
  b.add(T1, T1, T2);
  b.addi(T2, T2, 1);
  b.sd(T2, A0, 8);
  b.addi(T0, T0, -1);
  b.branch(riscv::Op::kBne, T0, 0, "loop");
  b.ecall();
  return b.build();
}

std::size_t allocations_during_run(const Simulator& sim,
                                   const riscv::Program& program,
                                   RunResult& res) {
  const std::size_t before = g_allocations;
  sim.run(program, res);
  return g_allocations - before;
}

/// The ceiling-only run (no quiescence rule): the long loop runs to its
/// ECALL, 3238 cycles.
CoreConfig ceiling_only() {
  CoreConfig cfg;
  cfg.quiet_cycles = 0;
  return cfg;
}

TEST(Alloc, RunLengthDoesNotChangeAllocationCount) {
  if (!SPECURE_COUNTING_NEW) GTEST_SKIP() << "sanitizer owns operator new";
  const Simulator sim{ceiling_only()};
  RunResult res(&sim.signal_db());
  // Grow every reusable buffer of `res` past what the measured runs need.
  sim.run(loop_program(2000), res);
  const std::uint64_t long_cycles = res.cycles;

  const riscv::Program short_loop = loop_program(3);
  const riscv::Program long_loop = loop_program(400);
  const std::size_t short_allocs = allocations_during_run(sim, short_loop, res);
  const std::uint64_t short_cycles = res.cycles;
  const std::size_t long_allocs = allocations_during_run(sim, long_loop, res);
  ASSERT_TRUE(res.halted_clean);
  ASSERT_GT(res.cycles, 20 * short_cycles);
  ASSERT_LT(res.cycles, long_cycles);
  EXPECT_EQ(short_allocs, long_allocs)
      << short_cycles << "-cycle run: " << short_allocs << " allocations, "
      << res.cycles << "-cycle run: " << long_allocs;
}

TEST(Alloc, QuiescentRunAllocatesLikeAShortOne) {
  if (!SPECURE_COUNTING_NEW) GTEST_SKIP() << "sanitizer owns operator new";
  const Simulator sim{CoreConfig{}};
  RunResult res(&sim.signal_db());
  // The long loop stops committing new PCs within its first trips, so
  // under the default config it ends quiescent, not at its ECALL. Warm
  // the buffers with that same run.
  const riscv::Program long_loop = loop_program(400);
  sim.run(long_loop, res);
  ASSERT_TRUE(res.quiescent);

  const std::size_t short_allocs =
      allocations_during_run(sim, loop_program(3), res);
  const std::uint64_t short_cycles = res.cycles;
  ASSERT_TRUE(res.halted_clean);
  const std::size_t long_allocs = allocations_during_run(sim, long_loop, res);
  ASSERT_TRUE(res.quiescent);
  ASSERT_FALSE(res.halted_clean);
  ASSERT_GT(res.cycles, 20 * short_cycles);
  EXPECT_EQ(short_allocs, long_allocs)
      << short_cycles << "-cycle run: " << short_allocs << " allocations, "
      << res.cycles << "-cycle quiescent run: " << long_allocs;
}

}  // namespace
}  // namespace specure::sim
