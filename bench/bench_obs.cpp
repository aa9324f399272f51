// Observability overhead: iterations/sec of the same campaign with the
// metrics registry off (metrics=false: histograms unregistered, spans
// off), on (the default), and on with span tracing (--trace-out). The
// instrumentation contract is "result-neutral and ~free": counters are
// relaxed atomics on per-lane cache lines, histograms two more, spans
// two clock reads plus a ring write — so the gate here is tight:
//
//   overhead(on)        <= 3% of the metrics=off baseline
//   overhead(on+trace)  <= 3%
//
// Rounds interleave the three modes and each mode reports its best
// round, so transient machine load cannot
// masquerade as instrumentation cost. Every mode's CampaignResult is
// verified identical to the baseline's — the bit-identity half of the
// contract — and a divergence fails the bench hard.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"

namespace {

using namespace specure;

bool results_identical(const core::CampaignResult& a,
                       const core::CampaignResult& b) {
  if (a.history.size() != b.history.size() ||
      a.vulns.size() != b.vulns.size() ||
      a.first_detection != b.first_detection ||
      a.total_windows != b.total_windows ||
      a.pdlc_total != b.pdlc_total) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].iteration != b.history[i].iteration ||
        a.history[i].covered_pdlc != b.history[i].covered_pdlc ||
        a.history[i].coverage_points != b.history[i].coverage_points ||
        a.history[i].vulns_found != b.history[i].vulns_found ||
        a.history[i].cycles != b.history[i].cycles) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.vulns.size(); ++i) {
    if (core::dedup_key(a.vulns[i]) != core::dedup_key(b.vulns[i])) {
      return false;
    }
  }
  return true;
}

struct Mode {
  const char* name;
  const char* key;
  bool metrics;
  bool trace;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace specure;
  bench::BenchJson json(argc, argv, "obs");
  bench::header("Observability overhead: metrics off / on / on+tracing");

  constexpr std::uint64_t kIters = 320;
  constexpr std::size_t kJobs = 2;
  constexpr int kRounds = 3;
  const std::string trace_path = "bench_obs_trace.json";

  const Mode kModes[] = {
      {"metrics=off", "off", false, false},
      {"metrics=on", "on", true, false},
      {"on+tracing", "trace", true, true},
  };
  constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

  bench::note("campaign: " + std::to_string(kIters) + " iterations, jobs=" +
              std::to_string(kJobs) + ", default preset; best of " +
              std::to_string(kRounds) + " interleaved rounds per mode");

  double best[kModeCount] = {};
  core::CampaignResult reference[kModeCount];
  obs::Snapshot last_snapshot;
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < kModeCount; ++m) {
      core::CampaignSpec spec;
      spec.rng_seed = 7;
      spec.jobs = kJobs;
      spec.budget.iterations = kIters;
      spec.metrics = kModes[m].metrics;
      if (kModes[m].trace) spec.trace_out = trace_path;
      core::Session session(spec);
      const auto t0 = std::chrono::steady_clock::now();
      const core::CampaignResult result = session.run();
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (round == 0) {
        reference[m] = result;
        if (m > 0 && !results_identical(reference[0], reference[m])) {
          identical = false;
        }
      }
      if (round == 0 || s < best[m]) best[m] = s;
      if (m == kModeCount - 1) last_snapshot = session.metrics_snapshot();
    }
  }
  std::remove(trace_path.c_str());

  const double base_ips = best[0] > 0 ? kIters / best[0] : 0;
  std::printf("  %-12s %-10s %-10s %s\n", "mode", "seconds", "iters/s",
              "overhead");
  bool gate_ok = true;
  for (std::size_t m = 0; m < kModeCount; ++m) {
    const double ips = best[m] > 0 ? kIters / best[m] : 0;
    const double overhead =
        best[0] > 0 ? (best[m] - best[0]) / best[0] * 100.0 : 0;
    std::printf("  %-12s %-10.3f %-10.1f %+.2f%%\n", kModes[m].name, best[m],
                ips, overhead);
    json.metric(std::string("iters_per_sec_") + kModes[m].key, ips);
    json.metric(std::string("overhead_pct_") + kModes[m].key, overhead);
    if (m > 0 && overhead > 3.0) gate_ok = false;
  }
  json.metric("gate_overhead_pct", 3.0);
  bench::export_registry(json, last_snapshot);

  bench::note("gate: instrumentation overhead <= 3% of the metrics=off "
              "baseline; results must be bit-identical across modes");
  if (!identical) {
    std::printf("  !! CampaignResult diverged across observability modes "
                "(the result-neutrality contract is broken)\n");
    return 1;
  }
  if (!gate_ok) {
    std::printf("  !! overhead gate exceeded (3%% of %.1f iters/s "
                "baseline)\n", base_ips);
  }
  return 0;
}
