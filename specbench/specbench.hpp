// specbench — shared pieces of the repository benchmark: timing helpers,
// the CampaignResult digest every run is checked with, the open-loop
// request generator, and the two measured passes (campaign.cpp: Session
// runs and the traced layer-by-layer replay; served.cpp: the daemon).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign_spec.hpp"
#include "core/result_merger.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"

namespace specbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated percentile (p in 0..100) of `values`; 0 when
/// empty. Takes a copy: callers keep their samples in arrival order.
double percentile(std::vector<double> values, double p);

/// Median of `values` (percentile 50).
inline double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

/// FNV-1a digest of everything a campaign result promises to keep
/// bit-identical across jobs, executors, checkpoint and tier settings:
/// the per-iteration history, LP covered count, window totals, every
/// finding's dedup key and the first-detection map. Wall-clock fields
/// are excluded.
std::uint64_t result_digest(const specure::core::CampaignResult& result);

/// Final LP channels covered (0 for an empty campaign).
inline std::size_t lp_covered(const specure::core::CampaignResult& result) {
  return result.history.empty() ? 0 : result.history.back().covered_pdlc;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// One "Key: <number>" field of /proc/self/status (VmSize in kB,
/// Threads as a count); 0 when absent.
double proc_status_field(const std::string& key);

/// Open-loop request generator: request i is due at
/// start + phase + i * period + jitter_i, where phase and jitter (each
/// under a quarter period) come from `seed`. A request is sent at its due
/// time or, when the previous one is still outstanding, as soon as it
/// returns. An overdue request's latency is measured from its due time, so
/// a stall is charged to every request it delays; a request the generator
/// slept for is timed from the generator's wake-up, so a late wake-up of
/// the generator thread itself is not charged to the system.
/// `late_ms_max` is how far behind its schedule the generator ever sent.
class OpenLoop {
 public:
  OpenLoop(double period_ms, std::uint64_t seed);

  /// Issue requests until `done()` returns true (checked before each
  /// request). `request(i)` performs request i and returns false when it
  /// failed (error response, mismatch, exception).
  void run(const std::function<bool(std::size_t)>& request,
           const std::function<bool()>& done);

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  double late_ms_max() const { return late_ms_max_; }
  std::uint64_t attempted() const { return latencies_ms_.size(); }
  std::uint64_t failed() const { return failed_; }

 private:
  double period_ms_;
  std::uint64_t seed_;
  std::vector<double> latencies_ms_;
  double late_ms_max_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- campaign.cpp ----------------------------------------------------------

/// One untraced Session campaign.
struct SessionRun {
  specure::core::CampaignResult result;
  double setup_s = 0;     ///< Session construction until the first job starts
  double campaign_s = 0;  ///< first job start until run() returns
  std::size_t jobs = 1;
  specure::obs::Snapshot metrics;  ///< the session registry after the run
  specure::core::PipelineStats pipeline;  ///< the executor's view of it
  /// Live registry scrapes (snapshot + Prometheus render) issued open-loop
  /// from a second thread while the campaign ran; empty when not asked.
  std::vector<double> scrape_ms;
  double scrape_late_ms_max = 0;
  std::uint64_t scrape_failed = 0;
};

/// Run `spec` on a fresh Session. With `scrape_period_ms` > 0 a second
/// thread scrapes the live registry on an open-loop schedule from
/// `scrape_seed` for the whole run() call.
SessionRun run_session(const specure::core::CampaignSpec& spec,
                       double scrape_period_ms = 0,
                       std::uint64_t scrape_seed = 0);

/// The traced serial replay of one campaign through the public layer
/// calls, under the Session's window contract (job k is drawn after
/// iteration k - batch_size merged). Every call is timed.
struct Replay {
  specure::core::CampaignResult result;
  double offline_s = 0;         ///< run_offline_phase
  std::size_t pdlc_channels = 0;
  double wall_s = 0;            ///< the campaign loop
  // Self time per layer (seconds). The layer calls do not nest, so each
  // call's duration is its self time.
  double fuzz_s = 0, sim_s = 0, mst_s = 0, lp_s = 0, detect_s = 0,
         merge_s = 0;
  std::vector<double> sim_ms, lp_ms, detect_ms, merge_us;  ///< per call
  std::uint64_t iterations = 0, cycles = 0, capped_runs = 0,
                trace_events = 0, windows = 0, lp_hits = 0, reports = 0,
                fed_back = 0;

  double layer_sum_s() const {
    return fuzz_s + sim_s + mst_s + lp_s + detect_s + merge_s;
  }
};

Replay replay(const specure::core::CampaignSpec& spec);

// ---- served.cpp ------------------------------------------------------------

/// One pass of campaigns served by an in-process `serve::Server` (2 pool
/// workers, slice 32): the tenants are submitted over the socket, then a
/// client sends alternating `metrics` and `status` requests every 4 ms on
/// an open-loop schedule until every tenant reports done (a tenant not
/// done within 120 s counts as a failure).
struct ServedOptions {
  std::uint64_t seed = 0;  ///< request schedule phase / jitter
  std::string dir;         ///< scratch dir for socket + store
  /// Stop right after the submit acknowledgements (set-up time only).
  bool setup_only = false;
};

struct ServedRun {
  double setup_s = 0;     ///< Server construction, bind, submit acks
  double campaign_s = 0;  ///< first submit until the last tenant is done
  std::vector<double> latency_ms;  ///< per `metrics` scrape (OpenLoop timing)
  double late_ms_max = 0;
  std::uint64_t requests = 0;       ///< requests sent (submits included)
  std::uint64_t failed = 0;         ///< error frames, exceptions, timeouts
  /// Each tenant's report.json with wall-clock fields zeroed, in submit
  /// order (compare against normalized_report of a solo Session run).
  std::vector<std::string> reports;
  // The serve layer, from the final daemon-wide metrics scrape.
  double slices = 0, state_writes = 0;
  double state_write_ms_p50 = 0, state_write_ms_p95 = 0;
  double state_bytes = 0;   ///< summed state.bin sizes at the end
  double vmsize_mib = 0;    ///< /proc/self/status before shutdown
  double threads = 0;
};

ServedRun run_served(const std::vector<specure::core::CampaignSpec>& tenants,
                     const ServedOptions& options);

/// The spec a tenant runs as (the daemon forces jobs=1 on submit).
specure::core::CampaignSpec tenant_spec(
    const specure::core::CampaignSpec& spec);

/// write_json_report output of `result` under `spec`, as the daemon writes
/// it, with the wall-clock "seconds" field zeroed.
std::string normalized_report(const specure::core::CampaignSpec& spec,
                              const specure::core::CampaignResult& result);

/// Zero the wall-clock "seconds" value of a JSON report text.
std::string zero_seconds(std::string report);

}  // namespace specbench
