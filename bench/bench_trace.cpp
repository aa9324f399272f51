// Trace-layer micro-bench: dense reference recorder vs the delta-native
// trace on the default MiniBOOM preset. Reports per-run trace memory
// (dense vs delta, the ≥5× headline), recording+analysis throughput on
// both paths, and random-access materialization cost (a cold path: events
// undone from the live array or replayed from reset, whichever side of
// the tick is shorter) — the numbers quoted in docs/ARCHITECTURE.md.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace specure;
  using clock = std::chrono::steady_clock;

  bench::BenchJson json(argc, argv, "trace");
  bench::header("Trace layer: dense reference vs delta-native");

  const std::size_t kPrograms = 24;
  const std::size_t kProgramLen = 96;
  std::vector<riscv::Program> programs;
  {
    util::Rng rng(17);
    for (std::size_t i = 0; i < kPrograms; ++i) {
      programs.push_back(riscv::random_program(rng, kProgramLen));
    }
  }
  const core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});

  // ---- memory: one dual-recorded pass ------------------------------------
  sim::CoreConfig dual_cfg;
  dual_cfg.record_dense_trace = true;
  sim::Simulator dual_sim(dual_cfg);
  std::size_t dense_bytes = 0, delta_bytes = 0, cycles = 0, events = 0;
  for (const auto& p : programs) {
    const sim::RunResult run = dual_sim.run(p);
    dense_bytes += run.dense_trace->memory_bytes();
    delta_bytes += run.trace.memory_bytes();
    cycles += run.trace.size();
    events += run.trace.event_count();
  }
  std::printf("  %-26s %zu signals, %zu cycles, %zu change events\n",
              "workload:", dual_sim.signal_db().size(), cycles, events);
  std::printf("  %-26s %10.1f KiB  (%.1f bytes/cycle)\n",
              "dense trace memory:", dense_bytes / 1024.0,
              static_cast<double>(dense_bytes) / cycles);
  std::printf("  %-26s %10.1f KiB  (%.1f bytes/cycle)\n",
              "delta trace memory:", delta_bytes / 1024.0,
              static_cast<double>(delta_bytes) / cycles);
  const double ratio = static_cast<double>(dense_bytes) / delta_bytes;
  std::printf("  %-26s %10.1fx\n", "memory reduction:", ratio);
  json.metric("dense_bytes_per_cycle", static_cast<double>(dense_bytes) / cycles);
  json.metric("delta_bytes_per_cycle", static_cast<double>(delta_bytes) / cycles);
  json.metric("memory_reduction", ratio);

  // ---- throughput: simulate + full detector pass on each path ------------
  // The dense path reproduces the pre-delta pipeline: full snapshot
  // capture plus O(cycles × signals) window queries. The delta path is
  // what campaigns run today.
  const auto bench_pass = [&](bool dense_path) {
    sim::CoreConfig cfg;
    cfg.record_dense_trace = dense_path;
    sim::Simulator sim(cfg);
    core::LpCoverageMap lp(off.ifg, off.pdlc, sim.signal_db());
    const auto t0 = clock::now();
    std::size_t total_windows = 0;
    for (const auto& p : programs) {
      const sim::RunResult run = sim.run(p);
      const auto windows = core::extract_mst(run.trace);
      total_windows += windows.size();
      if (dense_path) {
        lp.update(*run.dense_trace, windows);
      } else {
        lp.update(run.trace, windows);
      }
    }
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    return std::pair<double, std::size_t>(s, total_windows);
  };
  bench_pass(false);  // warm-up (page cache, allocator)
  const auto [dense_s, dense_w] = bench_pass(true);
  const auto [delta_s, delta_w] = bench_pass(false);
  if (dense_w != delta_w) {
    std::printf("  !! window count diverged: %zu vs %zu\n", dense_w, delta_w);
    return 1;
  }
  std::printf("  %-26s %10.1f runs/sec\n", "dense pipeline:",
              programs.size() / dense_s);
  std::printf("  %-26s %10.1f runs/sec  (%.2fx)\n", "delta pipeline:",
              programs.size() / delta_s, dense_s / delta_s);
  json.metric("dense_runs_per_sec", programs.size() / dense_s);
  json.metric("delta_runs_per_sec", programs.size() / delta_s);

  // ---- random access ------------------------------------------------------
  {
    sim::Simulator sim{sim::CoreConfig{}};
    const sim::RunResult run = sim.run(programs[0]);
    const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
    const std::size_t kLookups = 20000;
    const auto t0 = clock::now();
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < kLookups; ++i) {
      sink += run.trace.at_cycle(1 + (i * 37) % last).values[0];
    }
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    std::printf("  %-26s %10.2f us/lookup  (from the nearer end, %zu-cycle "
                "trace)\n",
                "at_cycle materialize:", 1e6 * s / kLookups,
                run.trace.size());
    json.metric("at_cycle_us_per_lookup", 1e6 * s / kLookups);
    if (sink == 0x12345678) std::printf(" ");  // keep the loop observable
  }
  json.metric("peak_rss_kib", static_cast<double>(bench::peak_rss_kib()));

  if (ratio < 5.0) {
    std::printf("  !! memory reduction below the 5x acceptance floor\n");
    return 1;
  }
  bench::note("dense path = pre-delta pipeline (full per-cycle snapshots + "
              "dense window queries)");
  return 0;
}
