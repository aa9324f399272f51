// Shared helpers for the experiment benches: fixed-width table printing,
// campaign result helpers, and the machine-readable metric sink
// (`--json OUT` writes BENCH_<name>.json so CI can track the perf
// trajectory across PRs). Each bench binary regenerates one table or
// figure from the paper's evaluation (see DESIGN.md §3).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"

namespace specure::bench {

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("  # %s\n", text.c_str());
}

/// CMake build type this binary was compiled under (stamped into every
/// BENCH_*.json): perf numbers from a Debug/RelWithDebInfo build are not
/// comparable to the committed Release baselines, and the stamp makes a
/// mis-recorded file self-incriminating.
inline const char* build_type() {
#ifdef SPECURE_BUILD_TYPE
  return SPECURE_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Process peak RSS in KiB so far — a monotonic high-water mark.
inline std::size_t peak_rss_kib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss);
}

/// Machine-readable metric sink. Constructed from argv: when `--json OUT`
/// is given, metrics recorded with metric() are written to
/// OUT/BENCH_<name>.json when the sink is flushed (or destroyed), so the
/// perf numbers a bench prints are also diffable across PRs:
///
///   int main(int argc, char** argv) {
///     bench::BenchJson json(argc, argv, "trace");
///     ...
///     json.metric("delta_bytes_per_cycle", bytes_per_cycle);
///   }  // writes OUT/BENCH_trace.json
class BenchJson {
 public:
  BenchJson(int argc, char** argv, std::string name)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) != "--json") continue;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench: --json needs an output directory\n");
        std::exit(64);
      }
      out_dir_ = argv[i + 1];
    }
  }

  ~BenchJson() { flush(); }

  bool enabled() const { return !out_dir_.empty(); }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Write the file now (idempotent). Returns the path, or "" when the
  /// sink is disabled or the write failed.
  std::string flush() {
    if (!enabled() || flushed_) return path_;
    flushed_ = true;
    std::error_code ec;
    std::filesystem::create_directories(out_dir_, ec);
    path_ = out_dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot open %s\n", path_.c_str());
      path_.clear();
      return path_;
    }
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"build_type\": \""
        << build_type() << "\",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n    \"" << metrics_[i].first
          << "\": " << metrics_[i].second;
    }
    out << "\n  }\n}\n";
    std::printf("  # metrics written to %s\n", path_.c_str());
    return path_;
  }

 private:
  std::string name_;
  std::string out_dir_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
  bool flushed_ = false;
};

/// Iteration at which a campaign first produced a finding whose key
/// contains `pattern`; 0 when never found.
inline std::uint64_t first_detection(const core::CampaignResult& result,
                                     const std::string& pattern) {
  for (const auto& [key, iteration] : result.first_detection) {
    if (key.find(pattern) != std::string::npos) return iteration;
  }
  return 0;
}

/// Stop condition matching a finding-key substring (sugar over
/// Session::stop_on_finding for bench call sites).
inline core::Session::StopCondition stop_on(const std::string& pattern) {
  return core::Session::stop_on_finding(pattern);
}

/// Run one spec with an optional extra stop condition — the bench-side
/// one-liner for "campaign under these options, stop when ...".
inline core::CampaignResult run_spec(
    const core::CampaignSpec& spec,
    core::Session::StopCondition stop = nullptr) {
  core::Session session(spec);
  if (stop) session.add_stop(std::move(stop));
  return session.run();
}

/// run_spec plus the session's per-stage pipeline timing — the scaling
/// benches break a campaign's wall-clock into generate / execute /
/// queue-wait / merge so a throughput regression names its stage.
struct SpecRunStats {
  core::CampaignResult result;
  core::PipelineStats pipeline;
  obs::Snapshot metrics;  ///< the session registry at campaign end
};

inline SpecRunStats run_spec_with_stats(
    const core::CampaignSpec& spec,
    core::Session::StopCondition stop = nullptr) {
  core::Session session(spec);
  if (stop) session.add_stop(std::move(stop));
  SpecRunStats out;
  out.result = session.run();
  out.pipeline = session.pipeline_stats();
  out.metrics = session.metrics_snapshot();
  return out;
}

/// Median of `v` (the mean of the middle two for an even count); 0 when
/// empty. Benches that repeat a measurement over interleaved rounds
/// report this, so one slow host phase moves no gate.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Export a metrics-registry snapshot into the bench's JSON under
/// `prefix`: every counter/gauge total, and count + p50/p99 per
/// histogram — so BENCH_*.json carries the same registry the --stats
/// footer and the serve metrics verb read, diffable across PRs.
inline void export_registry(BenchJson& json, const obs::Snapshot& snap,
                            const std::string& prefix = "obs/") {
  for (const obs::CounterSnapshot& c : snap.counters) {
    json.metric(prefix + c.name, static_cast<double>(c.total));
  }
  for (const obs::GaugeSnapshot& g : snap.gauges) {
    json.metric(prefix + g.name, static_cast<double>(g.value));
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    json.metric(prefix + h.name + "/count", static_cast<double>(h.count));
    if (h.count > 0) {
      json.metric(prefix + h.name + "/p50", h.percentile(50));
      json.metric(prefix + h.name + "/p99", h.percentile(99));
    }
  }
}

/// The paper reports wall-clock hours on a 32-core Xeon running RTL
/// simulation; our PUT is a fast C++ model, so we report iterations plus a
/// derived wall-clock using the paper's own scale: SpecDoctor's published
/// 31 h Spectre campaign defines the iterations-per-hour exchange rate for
/// a given baseline iteration count.
inline double derived_hours(std::uint64_t iterations,
                            std::uint64_t baseline_iterations,
                            double baseline_hours = 31.0) {
  if (baseline_iterations == 0) return 0;
  return baseline_hours * static_cast<double>(iterations) /
         static_cast<double>(baseline_iterations);
}

}  // namespace specure::bench
