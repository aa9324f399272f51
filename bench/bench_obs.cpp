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
// One untimed warm-up campaign runs first. Then rounds interleave the
// three modes, each campaign long enough (~0.3 s and up on a 4-vCPU host)
// that scheduler noise is a small share of it, and each mode reports the
// median over rounds of its overhead against the same round's
// metrics=off campaign, so a slow host phase cannot masquerade as
// instrumentation cost. Every mode's CampaignResult is verified identical
// to the baseline's — the bit-identity half of the contract — and a
// divergence fails the bench hard.
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

  constexpr std::uint64_t kIters = 2400;
  constexpr std::size_t kJobs = 2;
  constexpr int kRounds = 5;
  const std::string trace_path = "bench_obs_trace.json";

  const Mode kModes[] = {
      {"metrics=off", "off", false, false},
      {"metrics=on", "on", true, false},
      {"on+tracing", "trace", true, true},
  };
  constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

  bench::note("campaign: " + std::to_string(kIters) + " iterations, jobs=" +
              std::to_string(kJobs) + ", default preset; median of " +
              std::to_string(kRounds) +
              " interleaved rounds per mode after one untimed warm-up");

  const auto spec_for = [&](const Mode& mode) {
    core::CampaignSpec spec;
    spec.rng_seed = 7;
    spec.jobs = kJobs;
    spec.budget.iterations = kIters;
    spec.metrics = mode.metrics;
    if (mode.trace) spec.trace_out = trace_path;
    return spec;
  };
  (void)core::Session(spec_for(kModes[0])).run();  // warm-up, untimed

  std::vector<double> seconds[kModeCount];
  std::vector<double> overhead[kModeCount];
  core::CampaignResult reference[kModeCount];
  obs::Snapshot last_snapshot;
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < kModeCount; ++m) {
      core::Session session(spec_for(kModes[m]));
      const auto t0 = std::chrono::steady_clock::now();
      const core::CampaignResult result = session.run();
      seconds[m].push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
      if (round == 0) {
        reference[m] = result;
        if (m > 0 && !results_identical(reference[0], reference[m])) {
          identical = false;
        }
      }
      if (m == kModeCount - 1) last_snapshot = session.metrics_snapshot();
    }
    const double base = seconds[0].back();
    for (std::size_t m = 0; m < kModeCount; ++m) {
      overhead[m].push_back(
          base > 0 ? (seconds[m].back() - base) / base * 100.0 : 0);
    }
  }
  std::remove(trace_path.c_str());

  const double base_s = bench::median(seconds[0]);
  const double base_ips = base_s > 0 ? kIters / base_s : 0;
  std::printf("  %-12s %-10s %-10s %s\n", "mode", "seconds", "iters/s",
              "overhead");
  bool gate_ok = true;
  for (std::size_t m = 0; m < kModeCount; ++m) {
    const double s = bench::median(seconds[m]);
    const double ips = s > 0 ? kIters / s : 0;
    const double over = bench::median(overhead[m]);
    std::printf("  %-12s %-10.3f %-10.1f %+.2f%%\n", kModes[m].name, s, ips,
                over);
    json.metric(std::string("iters_per_sec_") + kModes[m].key, ips);
    json.metric(std::string("overhead_pct_") + kModes[m].key, over);
    if (m > 0 && over > 3.0) gate_ok = false;
  }
  json.metric("gate_overhead_pct", 3.0);
  bench::export_registry(json, last_snapshot);

  bench::note("seconds: median per mode; overhead: median over rounds of "
              "each mode's time against the same round's metrics=off time");
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
