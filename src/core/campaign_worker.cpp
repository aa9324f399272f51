#include "core/campaign_worker.hpp"

#include <chrono>

namespace specure::core {

CampaignWorker::CampaignWorker(const sim::CoreConfig& core,
                               const OfflineResult& offline,
                               LpPolicy lp_policy,
                               const DetectorOptions& detector)
    : sim_(core),
      lp_probe_(offline.ifg, offline.pdlc, sim_.signal_db(), lp_policy),
      detector_(offline.ifg, offline.pdlc, sim_.signal_db(), detector),
      scratch_(&sim_.signal_db()) {}

void CampaignWorker::set_observability(const WorkerObservability& hooks) {
  tracer_ = hooks.tracer;
  lane_ = hooks.lane;
  capped_runs_ = obs::Counter();
  run_cycles_ = obs::Histogram();
  if (hooks.registry != nullptr) {
    capped_runs_ = hooks.registry->counter("sim/capped_runs");
    if (hooks.histograms) {
      run_cycles_ = hooks.registry->histogram("hist/run_cycles");
    }
  }
}

void CampaignWorker::process(const fuzz::FuzzJob& job,
                             const util::AtomicBitset* lp_already_covered,
                             WorkerResult& out) {
  std::chrono::steady_clock::time_point e0;
  if (tracer_ != nullptr) e0 = std::chrono::steady_clock::now();
  // Recycle the shell's coverage buckets into the scratch RunResult
  // before the run (the simulator resets them keeping capacity), closing
  // the buffer-reuse loop across the executor's queue boundary.
  scratch_.coverage = std::move(out.coverage);
  sim_.run(job.program, scratch_);

  out.iteration = job.iteration;
  extract_mst(scratch_.trace, out.windows);
  lp_probe_.probe(scratch_.trace, out.windows, lp_already_covered,
                  out.lp_hits);
  out.reports = detector_.analyze(scratch_, out.windows);
  // The detector never sees the test input; stamp it so confirmed
  // findings stay re-simulatable (waveform export, triage minimization).
  for (VulnReport& report : out.reports) report.program = job.program;
  out.coverage = std::move(scratch_.coverage);
  out.cycles = scratch_.cycles;
  // Simulation cost per iteration follows run length, and runs that
  // exhaust the cycle budget are its long tail.
  run_cycles_.record(lane_, out.cycles);
  if (out.cycles >= sim_.config().max_cycles) capped_runs_.add(lane_);

  if (tracer_ != nullptr) {
    tracer_->record(lane_, "execute", "pipeline", e0,
                    std::chrono::steady_clock::now(), job.iteration);
  }
}

}  // namespace specure::core
