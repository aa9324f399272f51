// Parallel campaign scaling: iterations/sec of the Online Phase at
// 1/2/4/8 simulation workers on the default MiniBOOM configuration,
// under the pipelined sliding-window executor.
//
// The batch size is held constant across worker counts, so every row runs
// the *same* campaign (bit-identical CampaignResult — verified here via
// the final LP coverage) and only wall-clock throughput may differ. Each
// row also reports its per-stage split (generate / execute / queue-wait /
// merge), so a scaling regression names the stage that ate the speedup.
//
// Scaling gate: on hosts with >= 4 hardware threads the jobs=4 row must
// reach at least 2x the jobs=1 throughput. On smaller hosts the extra
// workers just time-slice one core, so the gate is skipped with a visible
// notice instead of reporting a fake failure.
#include <cstdio>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace specure;
  // Peak RSS is a monotonic high-water mark, so later rows can only
  // report >= earlier rows; the first row is the honest one.
  using bench::peak_rss_kib;

  bench::BenchJson json(argc, argv, "parallel_scaling");
  bench::header("Parallel campaign scaling (default MiniBOOM)");
  const std::uint64_t kIters = 400;
  const std::size_t kBatch = 32;
  bench::note("iterations: " + std::to_string(kIters) +
              ", batch size: " + std::to_string(kBatch) +
              ", hardware threads: " +
              std::to_string(std::thread::hardware_concurrency()));

  std::printf("  %-8s %-12s %-10s %-12s %-10s %-12s\n", "jobs", "seconds",
              "iters/sec", "speedup", "lp-cov", "peak-rss");
  double base_ips = 0;
  std::size_t base_lp = 0;
  double ips_jobs4 = 0;
  // Every row runs the same campaign, so lp-cov must agree across rows.
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    core::CampaignSpec spec;
    spec.rng_seed = 1;
    spec.jobs = jobs;
    spec.batch_size = kBatch;
    spec.budget.iterations = kIters;
    const auto [result, pipeline, registry] = bench::run_spec_with_stats(spec);
    const double ips =
        result.seconds > 0
            ? static_cast<double>(result.history.size()) / result.seconds
            : 0.0;
    const std::size_t lp =
        result.history.empty() ? 0 : result.history.back().covered_pdlc;
    if (jobs == 1) {
      base_ips = ips;
      base_lp = lp;
    }
    if (jobs == 4) ips_jobs4 = ips;
    std::printf("  %-8zu %-12.3f %-10.1f %-12.2f %-10zu %zu KiB\n", jobs,
                result.seconds, ips, base_ips > 0 ? ips / base_ips : 0.0, lp,
                peak_rss_kib());
    double execute = 0;
    double queue_wait = 0;
    for (std::size_t w = 0; w < pipeline.workers.size(); ++w) {
      const core::PipelineWorkerStats& ws = pipeline.workers[w];
      execute += ws.execute_seconds;
      queue_wait += ws.queue_wait_seconds;
      std::printf("    worker %zu: %llu jobs, execute %.3fs, "
                  "queue-wait %.3fs\n",
                  w, static_cast<unsigned long long>(ws.jobs),
                  ws.execute_seconds, ws.queue_wait_seconds);
    }
    std::printf("    merger: generate %.3fs, merge %.3fs, "
                "result-wait %.3fs\n",
                pipeline.generate_seconds, pipeline.merge_seconds,
                pipeline.result_wait_seconds);
    const std::string suffix = "_jobs" + std::to_string(jobs);
    json.metric("iters_per_sec" + suffix, ips);
    json.metric("execute_seconds" + suffix, execute);
    json.metric("queue_wait_seconds" + suffix, queue_wait);
    json.metric("generate_seconds" + suffix, pipeline.generate_seconds);
    json.metric("merge_seconds" + suffix, pipeline.merge_seconds);
    json.metric("result_wait_seconds" + suffix, pipeline.result_wait_seconds);
    if (lp != base_lp) {
      std::printf("  !! determinism violation: lp-cov %zu != %zu at the "
                  "jobs=1 baseline\n",
                  lp, base_lp);
      return 1;
    }
    // The full registry snapshot of the deepest row (jobs=8) rides along
    // in the JSON.
    if (jobs == 8) bench::export_registry(json, registry);
  }
  json.metric("peak_rss_kib", static_cast<double>(peak_rss_kib()));
  bench::note("speedup is relative to jobs=1; campaign results are "
              "identical across rows by construction");
  bench::note("peak-rss is the process high-water mark (monotonic across "
              "rows); worker traces are delta-native, O(changes) each");

  // Scaling gate (see the file comment): only meaningful when 4 workers
  // can actually run on 4 hardware threads.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    const double speedup = base_ips > 0 ? ips_jobs4 / base_ips : 0.0;
    json.metric("speedup_jobs4", speedup);
    if (speedup < 2.0) {
      std::printf("  !! scaling gate FAILED: jobs=4 is %.2fx jobs=1 "
                  "(need >= 2.00x on %u hardware threads)\n",
                  speedup, hw);
      return 1;
    }
    std::printf("  scaling gate passed: jobs=4 is %.2fx jobs=1\n", speedup);
  } else {
    bench::note("scaling gate SKIPPED: only " + std::to_string(hw) +
                " hardware thread(s); the >= 2x jobs=4 check needs >= 4");
  }
  return 0;
}
