// Campaign simulation worker — the parallel middle of the Online Phase
// pipeline (scheduler → simulation workers → result merger).
//
// Each worker owns a private sim::Simulator (schema-identical across
// workers: all derive from the same CoreConfig, so snapshot signal ids
// agree) and performs the entire per-iteration heavy lifting off-thread:
// simulate the program, extract the misspeculation table, probe LP
// coverage straight off the delta-native trace, and run the
// vulnerability detector. The output is a compact WorkerResult — the
// run trace (already O(changes), not O(cycles × signals)) stays in the
// worker's reusable scratch RunResult, so a deep batch stays cheap to
// buffer and no trace/commit/data buffers are reallocated per run.
//
// Simulation takes the checkpoint fast path when it can: every cold run
// emits a checkpoint set as a side effect (~1% overhead) and donates its
// trace, commit log and checkpoints to a budgeted LRU cache keyed by
// program hash (CheckpointCache) — so when a run's program later becomes
// a corpus parent, its checkpoints are already waiting. A job carrying
// mutation locality (FuzzJob::parent + divergence) resumes from the
// deepest parent checkpoint whose fetch watermark precedes the
// divergence — bit-identical to the cold run by the Simulator::run_from
// contract — and falls back to the cold path on any miss. The
// scheduler's parent-affinity routing sends all children of one parent
// to the same worker so its cache sees every reuse.
//
// process() touches worker-owned state (scratch buffers, the checkpoint
// cache) plus read-only shared state (the OfflineResult's IFG/PDLC), so
// any number of workers may run concurrently as long as each instance is
// driven by one thread at a time — which the session's per-worker job
// groups guarantee.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "core/vuln_detect.hpp"
#include "fuzz/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/core.hpp"

namespace specure::core {

/// Observability wiring the session hands each worker before a run():
/// registry instruments on the worker's lane (checkpoint-cache hit/miss,
/// runs that hit max_cycles, and — with `histograms` — cycles per run)
/// and, when tracing, the span recorder the worker emits execute /
/// fast_tier / detailed / checkpoint_resume spans into. All-default
/// (null) wiring makes every instrumentation site a no-op; nothing here
/// ever affects simulation results.
struct WorkerObservability {
  obs::Registry* registry = nullptr;
  obs::TraceRecorder* tracer = nullptr;
  std::size_t lane = 0;
  bool histograms = false;  ///< the spec's `metrics` key
};

/// Everything the merger needs from one simulated iteration, in a form
/// that is independent of merge order and campaign state.
struct WorkerResult {
  std::uint64_t iteration = 0;
  std::vector<SpecWindow> windows;
  /// LP channels exercised by this run (LpCoverageMap::probe output).
  std::vector<std::size_t> lp_hits;
  sim::CoverageRecorder coverage;
  /// Candidate findings; deduplication happens in the merger.
  std::vector<VulnReport> reports;
  std::uint64_t cycles = 0;
};

/// Worker-side checkpoint policy (derived from the spec's `checkpoint`
/// and `checkpoint_cache_mb` keys).
struct WorkerCheckpointOptions {
  bool enabled = true;
  std::size_t cache_bytes = 64ull << 20;
  sim::CheckpointOptions cadence;
  /// Resuming shallower than this many cycles is not worth the state
  /// restore + trace fork; take the cold path instead.
  std::uint64_t min_resume_cycles = 48;
};

/// Worker-side tier policy (derived from the spec's `tier` key and the
/// active detector preset).
struct WorkerTierOptions {
  /// Run cold jobs through the fast-functional prefix tier
  /// (Simulator::run_tiered) instead of the detailed-only path. Results
  /// are bit-identical either way; this is purely a throughput policy.
  bool fast = true;
  /// The detector monitors the data cache (cache-monitor / full
  /// presets), so loads can arm its observation window: hand off at the
  /// first load too, not just at control flow.
  bool loads_arm = false;
  /// A prefix shorter than this many instructions is not worth the
  /// fast-tier entry + boundary materialization into the detailed core;
  /// take the plain detailed path instead (the tier analogue of
  /// WorkerCheckpointOptions::min_resume_cycles). Runs that complete
  /// entirely inside the fast tier are exempt — they never pay the
  /// handoff, so they win at any length.
  std::size_t min_handoff_insts = 24;
};

/// Wall-clock telemetry of the fast path (never affects results).
struct CheckpointStats {
  std::uint64_t resumed = 0;        ///< jobs served by run_from
  std::uint64_t cold = 0;           ///< jobs served by the cold path
  std::uint64_t insertions = 0;     ///< cold runs donated to the cache
  std::uint64_t evictions = 0;      ///< LRU entries dropped for budget
  std::uint64_t resumed_cycles = 0; ///< prefix cycles skipped in total
};

/// Budgeted LRU map: program hash → that run's full trace, commit log
/// and checkpoint set. One entry serves every child of the program once
/// it becomes a corpus parent; the budget (bytes, not entries) bounds
/// worker memory. Lookups on behalf of children LRU-bump the entry, so
/// live parents survive the churn of never-selected runs.
class CheckpointCache {
 public:
  struct Entry {
    riscv::Program program;  ///< collision guard: verified on find()
    snapshot::Trace trace{nullptr};
    std::vector<sim::CommitRecord> commits;
    std::vector<sim::Checkpoint> points;  ///< ascending by cycle
    std::size_t bytes = 0;
    std::uint64_t stamp = 0;  ///< LRU clock

    /// Deepest checkpoint usable for a child whose first divergent
    /// instruction index is `divergence`, ignoring checkpoints shallower
    /// than `min_cycles`; nullptr when none qualifies.
    const sim::Checkpoint* best_for(std::size_t divergence,
                                    std::uint64_t min_cycles) const;
  };

  explicit CheckpointCache(std::size_t budget_bytes)
      : budget_(budget_bytes) {}

  /// Lookup + LRU bump. Verifies the stored program against `expected`
  /// so a hash collision degrades to a miss, never a wrong resume.
  Entry* find(std::uint64_t hash, const riscv::Program& expected);

  /// Insert (computing the entry's byte size), evicting least-recently
  /// used entries until the budget holds. Returns the stored entry, or
  /// nullptr when the entry alone exceeds the whole budget. When
  /// `recycled` is non-null it receives one evicted entry (if any was
  /// dropped), so the caller can reclaim its buffers instead of freeing
  /// and reallocating them next run.
  Entry* insert(std::uint64_t hash, Entry entry, CheckpointStats& stats,
                Entry* recycled = nullptr);

  std::size_t size() const { return map_.size(); }
  std::size_t total_bytes() const { return total_; }

 private:
  std::unordered_map<std::uint64_t, Entry> map_;
  std::size_t budget_;
  std::size_t total_ = 0;
  std::uint64_t clock_ = 0;
};

class CampaignWorker {
 public:
  CampaignWorker(const sim::CoreConfig& core, const OfflineResult& offline,
                 LpPolicy lp_policy, const DetectorOptions& detector,
                 const WorkerCheckpointOptions& checkpoint = {},
                 const WorkerTierOptions& tier = {});

  /// Simulate and analyze one job, writing into `out` (cleared first;
  /// its windows/lp_hits/coverage buffers are reused, so recycling one
  /// shell across iterations costs no allocator round trips). Safe to
  /// run concurrently with other workers' process() calls; a single
  /// worker must be driven by one thread at a time. `lp_already_covered`,
  /// when given, is the merger's atomic covered shadow; channels covered
  /// there are not re-probed, so worker cost falls as campaign coverage
  /// saturates (matching the serial engine's update()). The shadow may
  /// be mutated concurrently by the merger — stale reads only cost a
  /// redundant probe, never a result difference.
  void process(const fuzz::FuzzJob& job,
               const util::AtomicBitset* lp_already_covered,
               WorkerResult& out);

  /// Convenience form returning a fresh WorkerResult.
  WorkerResult process(const fuzz::FuzzJob& job,
                       const util::AtomicBitset* lp_already_covered =
                           nullptr) {
    WorkerResult out;
    process(job, lp_already_covered, out);
    return out;
  }

  /// (Re)wire observability; called by the session at run() setup (the
  /// recorder is rebuilt per traced run). Passing a default-constructed
  /// value detaches the worker from any previous registry/recorder.
  void set_observability(const WorkerObservability& hooks);

  const sim::Simulator& simulator() const { return sim_; }
  const CheckpointStats& checkpoint_stats() const { return stats_; }
  const CheckpointCache& checkpoint_cache() const { return cache_; }
  /// Cumulative across the worker's lifetime (the session snapshots a
  /// baseline per run() to report per-run deltas).
  const sim::TierStats& tier_stats() const { return tier_stats_; }

 private:
  /// Run the job into the scratch RunResult, via checkpoint resume when
  /// a usable parent checkpoint exists, cold otherwise.
  const sim::RunResult& simulate(const fuzz::FuzzJob& job);

  sim::Simulator sim_;
  LpCoverageMap lp_probe_;  ///< used const-only (probe), never committed
  VulnerabilityDetector detector_;
  WorkerCheckpointOptions checkpoint_;
  WorkerTierOptions tier_;
  CheckpointCache cache_;
  CheckpointStats stats_;
  sim::TierStats tier_stats_;
  sim::RunResult scratch_;  ///< reused across iterations (buffer reuse)
  /// Checkpoints emitted by the most recent cold run, pending donation
  /// to the cache once process() is done with the trace.
  std::vector<sim::Checkpoint> pending_points_;

  // Observability (see set_observability). The counters are inert when
  // no registry is attached; tracer_ == nullptr skips every span site.
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  obs::Counter capped_runs_;
  obs::Histogram run_cycles_;
  obs::TraceRecorder* tracer_ = nullptr;
  std::size_t lane_ = 0;
  /// How simulate() served the most recent job (execute-span tags).
  bool last_resumed_ = false;
  std::uint64_t last_resume_cycle_ = 0;
  std::size_t last_handoff_ = 0;
};

}  // namespace specure::core
