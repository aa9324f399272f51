// Session — the campaign facade over the scheduler → workers → merger
// pipeline, driven by a declarative CampaignSpec.
//
// A Session replaces the old ad-hoc stop lambda with a typed event /
// observer API and composable stop conditions:
//
//   Session session(CampaignSpec::preset("zenbleed"));
//   session.on_vuln([](const VulnEvent& e) { ... })         // new finding
//          .on_new_coverage([](const CoverageEvent& e) { ... })
//          .on_progress([](const ProgressEvent& e) { ... }) // every N iters
//          .on_frontier([](const CampaignFrontier& f) { ... },  // state
//                       state_write_interval(spec.state_interval))
//          .add_stop(Session::stop_on_finding("core.rf."));
//   CampaignResult result = session.run();
//
// Stop conditions compose: the spec's budgets (iteration cap, max_vulns,
// max_seconds, coverage plateau) are enforced automatically, and every
// condition added with add_stop() is OR-ed in. All observers run on the
// merger thread, strictly in iteration order, after the iteration that
// triggered them was merged — so the campaign state they see is exactly
// the deterministic, thread-count-independent state of the pipeline.
// Observers and deterministic stop conditions never perturb the campaign
// result (the determinism contract below holds through this API; only
// max_seconds is inherently wall-clock).
//
// run() may be called repeatedly; each call is a fresh campaign from the
// same spec (the simulation workers are built once and reused).
//
// Parallel campaign architecture
// ------------------------------
// Each fuzzing iteration simulates one program on a cold core, which makes
// the Online Phase embarrassingly parallel. A campaign is a three-layer
// pipeline (implemented in Session::run):
//
//   CampaignScheduler --> N x CampaignWorker --> ResultMerger
//
// The scheduler streams (iteration, program) jobs from the fuzzer into a
// sliding window of at most batch_size in-flight iterations; the merger
// consumes completions strictly in iteration order, applying LP-coverage
// commits, code-coverage merges, vulnerability deduplication, MST
// sampling and corpus feedback, and refills the window after every
// merge. Generation and merging form one merge strand on the caller
// thread. The executor follows from the resolved worker count: jobs == 1
// runs the definitional serial loop (simulate the oldest in-flight job on
// the caller thread, merge it, draw its replacement); jobs >= 2 runs the
// sliding-window executor, whose `jobs` worker threads, each owning a
// private sim::Simulator, pull jobs from one shared queue and simulate
// and analyze the window concurrently with no batch barrier.
//
// Determinism contract (sliding-window feedback): job k is generated
// from the merged campaign state through iteration k - batch_size (the
// window width), so corpus updates earned at iteration j take effect at
// iteration j + batch_size. That generation schedule is a pure function
// of (rng_seed, batch_size) — independent of `jobs`, of worker timing,
// and so of which executor runs the window — so a campaign with a fixed
// rng_seed and batch_size produces a bit-identical CampaignResult
// regardless of thread count; only wall-clock time changes. batch_size
// == 1 degenerates to the classic serial generate → simulate → feed-back
// loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_spec.hpp"
#include "core/campaign_worker.hpp"
#include "core/offline.hpp"
#include "core/result_merger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/core.hpp"
#include "triage/triage.hpp"

namespace specure::core {

/// Periodic heartbeat, every CampaignSpec::progress_interval iterations.
struct ProgressEvent {
  std::uint64_t iteration = 0;         ///< merged iterations so far
  std::uint64_t budget_iterations = 0; ///< the campaign's iteration budget
  std::size_t covered_pdlc = 0;
  std::size_t coverage_points = 0;
  std::size_t vulns = 0;
  double seconds = 0;                  ///< elapsed wall-clock
};

/// The just-merged iteration produced new coverage (either metric).
struct CoverageEvent {
  std::uint64_t iteration = 0;
  std::size_t new_lp_channels = 0;      ///< LP channels first covered here
  std::size_t new_coverage_points = 0;  ///< code-cov points first seen here
  std::size_t covered_pdlc = 0;         ///< cumulative
  std::size_t coverage_points = 0;      ///< cumulative
};

/// A new distinct finding (after merger deduplication).
struct VulnEvent {
  std::uint64_t iteration = 0;
  const VulnReport& report;
};

/// One confirmed finding awaiting its deferred waveform export (vcd_out):
/// recorded at merge time, re-simulated and written after the campaign
/// loop. Part of the resume frontier so a paused campaign still writes
/// the complete deterministic waveform set when it eventually finishes.
struct PendingWaveform {
  riscv::Program program;
  std::uint64_t iteration = 0;
  std::size_t vuln_begin = 0;  ///< index range into CampaignResult::vulns
  std::size_t vuln_end = 0;
};

/// The resume frontier: everything the campaign pipeline needs to
/// continue from a merge boundary as if it had never stopped. Captured on
/// the merge strand after iteration `merged` merged and the window was
/// refilled, so the invariant holds: the fuzzer has issued every job
/// through `merged + in_flight.size()`, corpus feedback is applied
/// through `merged`, and the not-yet-merged jobs ride along verbatim
/// (they cannot be regenerated — drawing them mutated corpus energy).
/// Resuming re-dispatches in_flight and then draws the next job from the
/// restored fuzzer, which by the sliding-window generation contract is
/// exactly the job the uninterrupted campaign would have drawn — so the
/// final CampaignResult is bit-identical at a fixed seed for any --jobs.
/// Serialized by serve/campaign_state into the durable state file.
struct CampaignFrontier {
  std::uint64_t merged = 0;  ///< iterations merged (== result.history.size())
  /// True when the campaign actually finished (budget, stop condition):
  /// resuming a completed frontier returns the stored result instead of
  /// running — stop conditions already fired and must not re-evaluate.
  bool completed = false;
  fuzz::FuzzerState fuzzer;
  std::vector<fuzz::FuzzJob> in_flight;  ///< iterations merged+1..issued
  CampaignResult result;
  std::vector<bool> lp_covered;
  std::uint64_t coverage_mask = 0;  ///< sim::CoverageRecorder::points()
  std::uint64_t toggle_bits = 0;
  std::uint64_t last_gain_iteration = 0;
  std::uint64_t last_progress = 0;
  std::vector<PendingWaveform> pending_vcd;
  double prior_seconds = 0;  ///< wall-clock accumulated across segments
};

/// The on_frontier interval of a sink that sees only the final frontier
/// (completed or paused) and no cadence capture.
constexpr double kFinalFrontierOnly = std::numeric_limits<double>::infinity();

/// The on_frontier interval for CampaignSpec::state_interval: that many
/// seconds, with 0 meaning kFinalFrontierOnly.
constexpr double state_write_interval(double state_interval) {
  return state_interval > 0 ? state_interval : kFinalFrontierOnly;
}

/// Wall-clock telemetry of one simulation worker in the campaign
/// executor. alignas(64): adjacent workers update their entries
/// concurrently, so each gets its own cache line.
struct alignas(64) PipelineWorkerStats {
  double execute_seconds = 0;     ///< time inside CampaignWorker::process
  double queue_wait_seconds = 0;  ///< time parked waiting for a job
  std::uint64_t jobs = 0;         ///< jobs this worker simulated
};

/// Per-stage timing of the most recent run() — the diagnosis surface for
/// scaling regressions (`specure run --stats`, bench JSON metrics).
/// Pure wall-clock telemetry: never part of CampaignResult, never
/// affects results. Since the obs layer landed this is a *view*:
/// materialized at the end of run() from the session's metrics registry
/// (this run's counter deltas), not accumulated independently.
struct PipelineStats {
  double generate_seconds = 0;     ///< scheduler/fuzzer job generation
  double merge_seconds = 0;        ///< in-order merging + observers
  double result_wait_seconds = 0;  ///< merger parked on the completion queue
  double vcd_seconds = 0;          ///< deferred waveform drain (vcd_out)
  std::vector<PipelineWorkerStats> workers;  ///< one entry per worker
};

class Session {
 public:
  /// A composable stop condition, evaluated after every merged iteration
  /// (including mid-batch). Returning true ends the campaign.
  using StopCondition = std::function<bool(const CampaignResult&)>;

  /// Validates the spec (throws SpecError) and runs the offline phase.
  explicit Session(CampaignSpec spec);

  // Observers; all optional, chainable, may be registered repeatedly
  // (every registered callback fires).
  Session& on_progress(std::function<void(const ProgressEvent&)> fn);
  Session& on_new_coverage(std::function<void(const CoverageEvent&)> fn);
  Session& on_vuln(std::function<void(const VulnEvent&)> fn);
  /// Fires once per finding after the post-campaign triage stage
  /// minimized it (spec.triage = on | full), in finding order.
  Session& on_finding_minimized(
      std::function<void(const triage::MinimizedEvent&)> fn);
  /// Durable-state sink: fires on the merge strand with the current
  /// resume frontier. Cadence captures fire when at least
  /// `min_interval_seconds` of run wall-clock passed since this sink last
  /// fired (0 = every merge boundary, kFinalFrontierOnly = never); the
  /// final frontier — completed or paused — always fires every sink (and
  /// may repeat the last cadence boundary; state writers are idempotent
  /// by construction). Like every observer, sinks never perturb the
  /// campaign result.
  Session& on_frontier(std::function<void(const CampaignFrontier&)> sink,
                       double min_interval_seconds = 0);
  Session& add_stop(StopCondition fn);

  /// Ready-made stop conditions for add_stop().
  static StopCondition stop_after_iterations(std::uint64_t n);
  /// Stop once any finding key contains `key_substring`.
  static StopCondition stop_on_finding(std::string key_substring);

  /// Run one full campaign under the spec's budgets and the registered
  /// stop conditions.
  CampaignResult run();

  /// Continue the next run() from a captured frontier instead of starting
  /// fresh (durable-state resume, `specure run --resume`, the serve
  /// daemon's restart recovery). The frontier must come from a campaign
  /// with the same result-affecting spec fields; wall-clock-only fields
  /// (jobs, intervals, output paths) may differ —
  /// the result stays bit-identical either way.
  void resume_from(CampaignFrontier frontier);

  /// Ask the running campaign to pause at the next merge boundary
  /// (async-signal-safe: one relaxed atomic store — the CLI's
  /// SIGINT/SIGTERM handler calls this). run() then returns the partial
  /// result, paused() turns true, and the next run() continues from the
  /// captured frontier.
  void request_pause() {
    pause_requested_.store(true, std::memory_order_relaxed);
  }

  /// Pause once `merged_iterations` total campaign iterations have merged
  /// (the serve daemon's time-slice boundary). 0 disables. A target at or
  /// below the current merge count pauses at the next boundary.
  void request_pause_at(std::uint64_t merged_iterations) {
    pause_at_.store(merged_iterations, std::memory_order_relaxed);
  }

  /// True when the most recent run() ended in a pause rather than a
  /// completed campaign (its frontier is pending: the next run()
  /// continues where it left off).
  bool paused() const { return paused_; }

  /// After a paused run(): produce the side outputs the campaign has
  /// earned so far — drain the deferred VCD waveforms and run finding
  /// triage on the partial result — without consuming the pause frontier,
  /// so a later resume_from()/run() still completes the campaign (and
  /// re-derives the same outputs at the true end, superseding these).
  /// `specure run`'s SIGINT/SIGTERM path: an interrupted campaign keeps
  /// its report, triage and waveforms AND stays resumable. No-op unless
  /// paused().
  void finalize_interrupted();

  const CampaignSpec& spec() const { return spec_; }
  const OfflineResult& offline() const { return offline_; }

  /// The triage stage's output for the most recent run(); nullptr when
  /// spec.triage is off or the campaign found nothing.
  const triage::TriageReport* triage_report() const {
    return triage_report_.get();
  }

  /// The worker count run() will actually use (resolves jobs == 0 and
  /// clips to the batch size — the sliding window keeps at most
  /// batch_size jobs in flight, so extra workers could never be fed).
  std::size_t resolved_jobs() const;

  /// Per-stage timing of the most recent run() (wall-clock telemetry;
  /// empty before the first run).
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

  /// Point-in-time copy of the session's metrics registry: stage/worker
  /// counters (cumulative across run() calls), campaign gauges, and —
  /// when spec.metrics is on — the per-iteration latency histograms
  /// behind the --stats percentiles and the serve `metrics` verb. Safe
  /// to call from any thread while a campaign runs (the serve daemon
  /// scrapes live); empty before the first run().
  obs::Snapshot metrics_snapshot() const {
    return metrics_ != nullptr ? metrics_->snapshot() : obs::Snapshot{};
  }

  /// Test-only hook: runs on the thread that simulates each job, before
  /// the job is processed (pipeline_test injects adversarial per-job
  /// delays to stress the in-order merge). Must not touch campaign state.
  void set_test_job_delay(
      std::function<void(const fuzz::FuzzJob&, std::size_t)> fn) {
    test_job_delay_ = std::move(fn);
  }

 private:
  /// Draw → merge → frontier state of one run() (session.cpp).
  class MergeStrand;

  /// The executors: jobs == 1 runs the serial loop on the caller thread,
  /// jobs >= 2 the sliding window over `jobs` worker threads.
  void run_serial(MergeStrand& strand);
  void run_window(MergeStrand& strand, std::size_t jobs);

  // Post-campaign tail, shared by run() and finalize_interrupted().
  void drain_waveforms(const std::vector<PendingWaveform>& pending,
                       const std::vector<VulnReport>& vulns);
  void triage_findings(const std::vector<VulnReport>& vulns);
  void write_trace() const;

  CampaignSpec spec_;
  OfflineResult offline_;
  sim::Simulator sim_;
  /// Simulation workers, built lazily on the first run() and reused by
  /// later campaigns (simulator construction is not free).
  std::vector<std::unique_ptr<CampaignWorker>> workers_;

  std::vector<std::function<void(const ProgressEvent&)>> progress_observers_;
  std::vector<std::function<void(const CoverageEvent&)>> coverage_observers_;
  std::vector<std::function<void(const VulnEvent&)>> vuln_observers_;
  std::vector<std::function<void(const triage::MinimizedEvent&)>>
      minimized_observers_;
  std::vector<std::pair<std::function<void(const CampaignFrontier&)>, double>>
      frontier_sinks_;
  /// Pending resume frontier: set by resume_from() or by a pause; the
  /// next run() consumes it.
  std::unique_ptr<CampaignFrontier> resume_;
  std::atomic<bool> pause_requested_{false};
  std::atomic<std::uint64_t> pause_at_{0};
  bool paused_ = false;
  std::vector<StopCondition> stops_;
  std::unique_ptr<triage::TriageReport> triage_report_;
  PipelineStats pipeline_stats_;
  /// Metrics registry: built at run() setup with one shard per pipeline
  /// lane (workers + merge strand), grown when a later run() resolves
  /// more jobs, cumulative across campaigns. unique_ptr: instrument
  /// handles point into it, so it must be address-stable.
  std::unique_ptr<obs::Registry> metrics_;
  /// Span recorder for the current/most recent traced run (rebuilt per
  /// run() when spec.trace_out is set; null otherwise).
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::size_t merge_lane_ = 0;  ///< registry shard of the merge strand
  std::function<void(const fuzz::FuzzJob&, std::size_t)> test_job_delay_;
};

}  // namespace specure::core
