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
// process() touches worker-owned state (scratch buffers) plus read-only
// shared state (the OfflineResult's IFG/PDLC), so any number of workers
// may run concurrently as long as each instance is driven by one thread
// at a time — which the session's executors guarantee.
#pragma once

#include <cstdint>
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
/// registry instruments on the worker's lane (time inside process(), jobs
/// processed, runs that went quiescent, runs that hit max_cycles, signal
/// ids the capture walked, windows extracted and — with `histograms` —
/// execute time and cycles per run)
/// and, when tracing, the span recorder the worker emits execute spans
/// into. All-default (null) wiring makes every instrumentation site a
/// no-op; nothing here ever affects simulation results.
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

class CampaignWorker {
 public:
  CampaignWorker(const sim::CoreConfig& core, const OfflineResult& offline,
                 LpPolicy lp_policy, const DetectorOptions& detector);

  /// Simulate and analyze one job, writing into `out` (cleared first;
  /// its windows/lp_hits buffers are reused, so recycling one shell
  /// across iterations costs no allocator round trips). Safe to
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

 private:
  sim::Simulator sim_;
  LpCoverageMap lp_probe_;  ///< used const-only (probe), never committed
  VulnerabilityDetector detector_;
  sim::RunResult scratch_;  ///< reused across iterations (buffer reuse)

  // Observability (see set_observability). The counters are inert when
  // no registry is attached; tracer_ == nullptr skips every span site.
  obs::Counter execute_ns_;
  obs::Counter jobs_;
  obs::Counter quiescent_runs_;
  obs::Counter capped_runs_;
  obs::Counter dirty_ids_;
  obs::Counter windows_;
  obs::Histogram execute_hist_;
  obs::Histogram run_cycles_;
  obs::TraceRecorder* tracer_ = nullptr;
  std::size_t lane_ = 0;
};

}  // namespace specure::core
