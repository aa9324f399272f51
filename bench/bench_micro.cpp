// E7: engineering micro-benchmarks (google-benchmark) for the performance-
// critical kernels: simulation, snapshot handling, IFG construction, PDLC
// extraction (both directions), mutation, and LP-coverage accounting.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "fuzz/mutator.hpp"
#include "riscv/decode.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "sim/structure.hpp"

using namespace specure;

namespace {

const sim::Simulator& shared_simulator() {
  static sim::Simulator sim{sim::CoreConfig{}};
  return sim;
}

void BM_SimulatorRun(benchmark::State& state) {
  util::Rng rng(1);
  const auto program =
      riscv::random_program(rng, static_cast<std::size_t>(state.range(0)));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto run = shared_simulator().run(program);
    cycles += run.cycles;
    benchmark::DoNotOptimize(run.trace.size());
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorRun)->Arg(32)->Arg(128)->Arg(256);

void BM_SnapshotDiff(benchmark::State& state) {
  util::Rng rng(2);
  const auto program = riscv::random_program(rng, 96);
  const auto run = shared_simulator().run(program);
  const auto& a = run.trace[0];
  const auto& b = run.trace[run.trace.size() - 1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot::diff(a, b).size());
  }
}
BENCHMARK(BM_SnapshotDiff);

void BM_TraceWindowMask(benchmark::State& state) {
  util::Rng rng(3);
  const auto run = shared_simulator().run(riscv::random_program(rng, 96));
  const auto windows = core::extract_mst(run.trace);
  if (windows.empty()) {
    state.SkipWithError("fixed seed produced no speculative window");
    return;
  }
  std::size_t w = 0;
  for (auto _ : state) {
    const auto& win = windows[w++ % windows.size()];
    benchmark::DoNotOptimize(
        run.trace.changed_mask(win.start_cycle, win.end_cycle).size());
  }
}
BENCHMARK(BM_TraceWindowMask);

void BM_TraceMaterialize(benchmark::State& state) {
  util::Rng rng(3);
  const auto run = shared_simulator().run(riscv::random_program(rng, 96));
  std::uint64_t c = 1;
  const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run.trace.at_cycle(1 + (c * 37) % last));
    ++c;
  }
}
BENCHMARK(BM_TraceMaterialize);

void BM_IfgBuild(benchmark::State& state) {
  const sim::CoreConfig cfg;
  for (auto _ : state) {
    const auto g = sim::build_ifg(cfg);
    benchmark::DoNotOptimize(g.node_count());
  }
}
BENCHMARK(BM_IfgBuild);

void BM_PdlcExtract(benchmark::State& state) {
  const auto g = sim::build_ifg(sim::CoreConfig{});
  ift::PdlcOptions opts;
  opts.reverse = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ift::extract_pdlc(g, opts).size());
  }
  state.SetLabel(opts.reverse ? "reverse" : "forward");
}
BENCHMARK(BM_PdlcExtract)->Arg(1)->Arg(0);

void BM_Mutate(benchmark::State& state) {
  util::Rng rng(4);
  auto program = riscv::random_program(rng, 96);
  for (auto _ : state) {
    program = fuzz::mutate(program, rng);
    benchmark::DoNotOptimize(program.code.size());
  }
}
BENCHMARK(BM_Mutate);

void BM_DecodeThroughput(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<std::uint32_t> words(4096);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.next());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(riscv::decode(words[i++ & 4095]).op);
  }
}
BENCHMARK(BM_DecodeThroughput);

void BM_CaptureCycle(benchmark::State& state) {
  // The per-cycle trace-capture kernel, isolated: a dense sweep records
  // all ~314 signals per cycle (arg0 = 0, the pre-dirty-set cost model),
  // while record_dirty walks only the K marked ids (arg0 = 1). In both
  // shapes the same K signals actually change value each cycle, so the
  // event streams are identical — the benchmark measures pure sweep
  // overhead, which is what the dirty-set engine removes. K = 6 and 8 are
  // the ids a campaign cycle walks on average (`sim/dirty_ids` per cycle
  // on default/7 and full/9); K = 32 is a busy cycle.
  const auto& sim = shared_simulator();
  const std::size_t n = sim.signal_descs().size();
  const bool dirty_walk = state.range(0) != 0;
  const auto k = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  std::vector<std::size_t> changing;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t id = i * (n / k);
    words[id / 64] |= std::uint64_t{1} << (id % 64);
    changing.push_back(id);
  }
  snapshot::Trace trace(&sim.signal_db());
  std::uint64_t cycle = 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (cycle % 8192 == 0) {  // bound trace growth across iterations
      trace.reset();
      trace.begin_cycle(cycle++);
      for (std::size_t i = 0; i < n; ++i) {
        trace.record(static_cast<snapshot::SignalId>(i), 0);
      }
      continue;
    }
    trace.begin_cycle(cycle++);
    ++v;
    if (dirty_walk) {
      trace.record_dirty(words, [v](std::size_t) { return v; });
    } else {
      std::size_t next = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool changed = next < changing.size() && changing[next] == i;
        if (changed) ++next;
        trace.record(static_cast<snapshot::SignalId>(i), changed ? v : 0);
      }
    }
  }
  state.SetLabel(dirty_walk ? "dirty" : "dense");
  state.counters["signals_walked"] =
      static_cast<double>(dirty_walk ? k : n);
}
BENCHMARK(BM_CaptureCycle)
    ->Args({0, 6})
    ->Args({1, 6})
    ->Args({1, 8})
    ->Args({1, 32});

/// The LP rows' input: one recorded run of a fixed random program.
sim::RunResult lp_run() {
  util::Rng rng(6);
  return shared_simulator().run(riscv::random_program(rng, 96));
}

void BM_LpCoverageUpdate(benchmark::State& state) {
  // The scalar reference: every window tests every channel. The map is
  // built once and reset each iteration, so only update() is timed.
  const auto off = core::run_offline_phase(sim::CoreConfig{});
  const auto run = lp_run();
  const auto windows = core::extract_mst(run.trace);
  core::LpCoverageMap lp(off.ifg, off.pdlc, shared_simulator().signal_db());
  const std::vector<bool> none(lp.total(), false);
  for (auto _ : state) {
    lp.restore_covered(none);
    benchmark::DoNotOptimize(lp.update(run.trace, windows));
  }
  state.counters["windows"] = static_cast<double>(windows.size());
}
BENCHMARK(BM_LpCoverageUpdate);

void BM_LpProbe(benchmark::State& state) {
  // The watch-list probe on the same run, with nothing covered yet.
  const auto off = core::run_offline_phase(sim::CoreConfig{});
  const auto run = lp_run();
  const auto windows = core::extract_mst(run.trace);
  const core::LpCoverageMap lp(off.ifg, off.pdlc,
                               shared_simulator().signal_db());
  std::vector<std::size_t> hits;
  for (auto _ : state) {
    lp.probe(run.trace, windows, nullptr, hits);
    benchmark::DoNotOptimize(hits.data());
    benchmark::ClobberMemory();
  }
  state.counters["windows"] = static_cast<double>(windows.size());
  state.counters["hits"] = static_cast<double>(hits.size());
}
BENCHMARK(BM_LpProbe);

}  // namespace

// Expanded BENCHMARK_MAIN so the emitted JSON context carries the
// *application* build type next to google-benchmark's own
// library_build_type (the library can be a debug build while the bench
// code is Release, or vice versa — both matter for comparability).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("specure_build_type", bench::build_type());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
