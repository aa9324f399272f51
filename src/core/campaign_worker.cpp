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
  execute_ns_ = jobs_ = quiescent_runs_ = capped_runs_ = dirty_ids_ =
      windows_ = obs::Counter();
  execute_hist_ = run_cycles_ = obs::Histogram();
  if (hooks.registry != nullptr) {
    execute_ns_ = hooks.registry->counter("worker/execute_ns");
    jobs_ = hooks.registry->counter("worker/jobs");
    quiescent_runs_ = hooks.registry->counter("sim/quiescent_runs");
    capped_runs_ = hooks.registry->counter("sim/capped_runs");
    dirty_ids_ = hooks.registry->counter("sim/dirty_ids");
    windows_ = hooks.registry->counter("mst/windows");
    if (hooks.histograms) {
      execute_hist_ = hooks.registry->histogram("hist/execute_ns");
      run_cycles_ = hooks.registry->histogram("hist/run_cycles");
    }
  }
}

void CampaignWorker::process(const fuzz::FuzzJob& job,
                             const util::AtomicBitset* lp_already_covered,
                             WorkerResult& out) {
  const auto e0 = std::chrono::steady_clock::now();
  sim_.run(job.program, scratch_);

  out.iteration = job.iteration;
  extract_mst(scratch_.trace, out.windows);
  lp_probe_.probe(scratch_.trace, out.windows, lp_already_covered,
                  out.lp_hits);
  out.reports = detector_.analyze(scratch_, out.windows);
  // The detector never sees the test input; stamp it so confirmed
  // findings stay re-simulatable (waveform export, triage minimization).
  for (VulnReport& report : out.reports) report.program = job.program;
  out.coverage = scratch_.coverage;
  out.cycles = scratch_.cycles;
  // Simulation cost per iteration follows run length: how runs end
  // (quiescent, or at the max_cycles ceiling), how many signal ids the
  // capture walked and how many windows each one yields explain it.
  run_cycles_.record(lane_, out.cycles);
  if (scratch_.quiescent) quiescent_runs_.add(lane_);
  if (out.cycles >= sim_.config().max_cycles) capped_runs_.add(lane_);
  dirty_ids_.add(lane_, scratch_.dirty_ids);
  windows_.add(lane_, out.windows.size());

  const auto e1 = std::chrono::steady_clock::now();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(e1 - e0).count());
  execute_ns_.add(lane_, ns);
  execute_hist_.record(lane_, ns);
  jobs_.add(lane_);
  if (tracer_ != nullptr) {
    tracer_->record(lane_, "execute", "pipeline", e0, e1, job.iteration);
  }
}

}  // namespace specure::core
