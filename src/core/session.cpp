#include "core/session.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <fstream>
#include <iterator>
#include <thread>

#include "core/campaign_scheduler.hpp"
#include "snapshot/vcd.hpp"
#include "util/fs.hpp"
#include "util/work_queue.hpp"

namespace specure::core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t to_ns(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double to_seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Fail before the campaign starts, not at the first confirmed finding.
/// Throws SpecError, which the CLI maps to a usage error; `key` names
/// the spec key in the message (vcd_out / triage_out).
void ensure_dir_writable(const std::string& dir, const char* key) {
  const std::string problem = util::ensure_dir_writable(dir);
  if (!problem.empty()) {
    throw SpecError(std::string(key) + " directory '" + dir + "' " + problem);
  }
}

/// The same probe for an output file's parent directory.
void ensure_parent_writable(const std::string& path, const char* key) {
  const std::size_t slash = path.find_last_of('/');
  ensure_dir_writable(slash == std::string::npos ? "." : path.substr(0, slash),
                      key);
}

/// Waveform filename component for a scenario: spec names are free-form,
/// so path separators and blanks are flattened.
std::string sanitized_scenario_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == ' ' || c == '\t') c = '_';
  }
  return out;
}

/// Total retained span capacity of a traced run, split across lanes
/// (see obs::TraceRecorder): enough for the most recent ~20k iterations
/// of a pipelined campaign at a few tens of MB, independent of campaign
/// length.
constexpr std::size_t kTraceCapacityEvents = std::size_t{1} << 17;

std::uint64_t delta_counter(const obs::Snapshot& end,
                            const obs::Snapshot& base, const char* name) {
  return end.counter_value(name) - base.counter_value(name);
}

std::uint64_t delta_shard(const obs::Snapshot& end, const obs::Snapshot& base,
                          const char* name, std::size_t shard) {
  const obs::CounterSnapshot* e = end.counter(name);
  const obs::CounterSnapshot* b = base.counter(name);
  const std::uint64_t ev =
      e != nullptr && shard < e->shards.size() ? e->shards[shard] : 0;
  const std::uint64_t bv =
      b != nullptr && shard < b->shards.size() ? b->shards[shard] : 0;
  return ev - bv;
}

/// PipelineStats as a view over the registry: this run()'s deltas
/// between the baseline snapshot (taken at setup) and now.
PipelineStats pipeline_stats_view(const obs::Snapshot& base,
                                  const obs::Snapshot& end,
                                  std::size_t jobs) {
  PipelineStats out;
  const auto secs = [&](const char* name) {
    return static_cast<double>(delta_counter(end, base, name)) / 1e9;
  };
  out.generate_seconds = secs("stage/generate_ns");
  out.merge_seconds = secs("stage/merge_ns");
  out.result_wait_seconds = secs("stage/result_wait_ns");
  out.vcd_seconds = secs("stage/vcd_ns");
  out.workers.resize(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    PipelineWorkerStats& ws = out.workers[w];
    ws.execute_seconds =
        static_cast<double>(delta_shard(end, base, "worker/execute_ns", w)) /
        1e9;
    ws.queue_wait_seconds =
        static_cast<double>(
            delta_shard(end, base, "worker/queue_wait_ns", w)) /
        1e9;
    ws.jobs = delta_shard(end, base, "worker/jobs", w);
  }
  return out;
}

/// The stage instruments of one run(), registered in one fixed order so
/// every jobs count exports the same families. The merge strand records
/// generate/merge and the campaign gauges, the window executor the two
/// waits; the workers record execute time and job counts, and
/// drain_waveforms() the vcd stage, fetching those by name. Histograms
/// are registered only when spec.metrics is on, so a metrics=off session
/// exports no empty histogram families.
struct Instruments {
  Instruments(obs::Registry& reg, bool histograms) {
    generate = reg.counter("stage/generate_ns");
    merge = reg.counter("stage/merge_ns");
    result_wait = reg.counter("stage/result_wait_ns");
    reg.counter("stage/vcd_ns");
    reg.counter("worker/execute_ns");
    queue_wait = reg.counter("worker/queue_wait_ns");
    reg.counter("worker/jobs");
    iterations = reg.counter("campaign/iterations");
    findings = reg.counter("campaign/findings");
    covered_pdlc = reg.gauge("campaign/covered_pdlc");
    coverage_points = reg.gauge("campaign/coverage_points");
    if (histograms) {
      h_generate = reg.histogram("hist/generate_ns");
      h_queue = reg.histogram("hist/queue_wait_ns");
      reg.histogram("hist/execute_ns");
      h_result = reg.histogram("hist/result_wait_ns");
      h_merge = reg.histogram("hist/merge_ns");
      h_iter = reg.histogram("hist/iter_latency_ns");
    }
  }

  obs::Counter generate, merge, result_wait, queue_wait, iterations,
      findings;
  obs::Gauge covered_pdlc, coverage_points;
  obs::Histogram h_generate, h_queue, h_result, h_merge, h_iter;
};

}  // namespace

// ---- the merge strand -----------------------------------------------------
// The single-threaded half of every executor: the fuzzer side (scheduler,
// the in-flight queue, a resumed frontier's replay queue), the in-order
// merge side (merger, observers, budgets and stop conditions, cadence
// counters, deferred waveforms) and the resume frontier built from both.
// It also times every draw and merge. The executors differ only in where
// and when the oldest in-flight job is simulated, so both reduce to loops
// over draw(), merge() and at_boundary() — and share one generation
// schedule, which is what makes the CampaignResult independent of the
// executor and the worker count.
class Session::MergeStrand {
 public:
  /// A fresh campaign when `resume` is null, else the continuation of
  /// the captured frontier. `t0` starts this run() segment's clock.
  MergeStrand(Session& session, std::size_t window, Clock::time_point t0,
              std::unique_ptr<CampaignFrontier> resume);

  MergeStrand(const MergeStrand&) = delete;
  MergeStrand& operator=(const MergeStrand&) = delete;

  std::size_t window() const { return window_; }
  /// Jobs drawn but not yet merged (never more than one window).
  std::size_t in_flight() const { return inflight_.size(); }
  /// The oldest in-flight job: the one the next merge() retires.
  const fuzz::FuzzJob& oldest() const { return inflight_.front(); }
  /// Slot of an iteration in window-sized per-iteration arrays.
  std::size_t slot(std::uint64_t iteration) const {
    return static_cast<std::size_t>((iteration - 1) % window_);
  }
  const Instruments& obs() const { return o_; }
  /// The merger's LP covered shadow, read by workers while they probe.
  const util::AtomicBitset& covered() const {
    return merger_.lp_covered_shadow();
  }
  bool stopped() const { return stopped_; }

  /// Draw the next job onto the back of the in-flight queue — a resumed
  /// frontier's in-flight jobs first, then the fuzzer. Returns it, or
  /// nullptr once the budget is fully issued.
  const fuzz::FuzzJob* draw();

  /// Draw until a full window is in flight or the budget is issued;
  /// `dispatch` receives each drawn job.
  template <typename Dispatch>
  void fill(Dispatch&& dispatch) {
    while (in_flight() < window_) {
      const fuzz::FuzzJob* job = draw();
      if (job == nullptr) return;
      dispatch(*job);
    }
  }

  /// Merge `result`, the outcome of oldest(), and retire that job: fire
  /// the observers, then evaluate the budgets and stop conditions
  /// (stopped() turns true when one fires).
  void merge(WorkerResult& result);

  /// The merge boundary after merge() and its refill draw — the only
  /// points where the frontier invariant holds (jobs issued through
  /// merged + in_flight(), feedback applied through merged). Fires the
  /// frontier sinks that are due; true when the campaign pauses here.
  bool at_boundary();

  /// True when the executor stopped at a pause with work left; a pause
  /// that landed on the campaign's last merge is a completion.
  bool paused() const {
    return pause_hit_ && !(inflight_.empty() && scheduler_.exhausted());
  }

  CampaignFrontier frontier(bool completed) const;

  /// The completed campaign's tail: hand the completed frontier to every
  /// sink.
  void finish();

  const std::vector<PendingWaveform>& pending_vcd() const {
    return pending_vcd_;
  }
  const CampaignResult& result() const { return merger_.result(); }
  /// Move the result out, stamped with the campaign's wall-clock.
  CampaignResult take_result() {
    CampaignResult result = merger_.take_result();
    result.seconds = elapsed();
    return result;
  }

 private:
  /// Wall-clock within this run() segment; elapsed() adds the time the
  /// campaign accumulated before a pause, so max_seconds budgets and
  /// report timings span resumes.
  double raw_elapsed() const { return to_seconds(Clock::now() - t0_); }
  double elapsed() const { return prior_seconds_ + raw_elapsed(); }

  Session& session_;
  const CampaignSpec& spec_;
  const std::size_t window_;
  const Clock::time_point t0_;
  obs::TraceRecorder* const tracer_;  ///< null unless spec.trace_out
  const std::size_t lane_;            ///< the strand's registry shard
  const Instruments o_;
  CampaignScheduler scheduler_;
  ResultMerger merger_;

  // `inflight_` holds the jobs issued but not yet merged, oldest first:
  // every job enters through draw() and leaves in merge(), so at any
  // merge boundary it is exactly the frontier's in_flight list.
  // `replay_` holds a resumed frontier's in-flight jobs, which draw()
  // re-issues verbatim before asking the scheduler (they cannot be
  // regenerated — drawing them mutated corpus energy).
  std::deque<fuzz::FuzzJob> inflight_;
  std::deque<fuzz::FuzzJob> replay_;
  std::uint64_t merged_ = 0;
  std::uint64_t last_gain_iteration_ = 0;
  std::uint64_t last_progress_ = 0;
  double prior_seconds_ = 0;
  // Deferred waveform export: confirmed findings are recorded here at
  // merge time and re-simulated after the campaign loop (a re-simulation
  // per finding on the strand was once its single largest serial term).
  // Merge order pins the file set.
  std::vector<PendingWaveform> pending_vcd_;
  // Issue timestamps for the iteration-latency histogram (draw -> merge,
  // the full residence time of one iteration), indexed by slot(); empty
  // unless spec.metrics is on.
  std::vector<Clock::time_point> issue_ts_;
  // Per-sink cadence clock (run wall-clock of the last fire), so two
  // sinks with different intervals throttle independently.
  std::vector<double> sink_last_fire_;
  bool stopped_ = false;
  bool pause_hit_ = false;
};

Session::MergeStrand::MergeStrand(Session& session, std::size_t window,
                                  Clock::time_point t0,
                                  std::unique_ptr<CampaignFrontier> resume)
    : session_(session),
      spec_(session.spec_),
      window_(window),
      t0_(t0),
      tracer_(session.tracer_.get()),
      lane_(session.merge_lane_),
      o_(*session.metrics_, spec_.metrics),
      scheduler_(spec_.fuzzer, spec_.rng_seed, spec_.budget.iterations),
      merger_(session.offline_, session.sim_.signal_db(), spec_.feedback,
              spec_.lp_policy, spec_.mst_sample_rows),
      issue_ts_(spec_.metrics ? window : 0),
      sink_last_fire_(session.frontier_sinks_.size(), 0) {
  if (resume == nullptr) return;
  CampaignFrontier& f = *resume;
  scheduler_.restore(std::move(f.fuzzer));
  merger_.restore(std::move(f.result), f.lp_covered, f.coverage_mask,
                  f.toggle_bits);
  replay_.assign(std::make_move_iterator(f.in_flight.begin()),
                 std::make_move_iterator(f.in_flight.end()));
  merged_ = f.merged;
  last_gain_iteration_ = f.last_gain_iteration;
  last_progress_ = f.last_progress;
  pending_vcd_ = std::move(f.pending_vcd);
  prior_seconds_ = f.prior_seconds;
}

const fuzz::FuzzJob* Session::MergeStrand::draw() {
  const auto g0 = Clock::now();
  if (!replay_.empty()) {
    inflight_.push_back(std::move(replay_.front()));
    replay_.pop_front();
  } else {
    inflight_.emplace_back();
    if (!scheduler_.next_job(inflight_.back())) {
      inflight_.pop_back();
      o_.generate.add(lane_, to_ns(Clock::now() - g0));
      return nullptr;
    }
  }
  const fuzz::FuzzJob& job = inflight_.back();
  const auto g1 = Clock::now();
  const std::uint64_t d = to_ns(g1 - g0);
  o_.generate.add(lane_, d);
  o_.h_generate.record(lane_, d);
  if (tracer_ != nullptr) {
    tracer_->record(lane_, "generate", "pipeline", g0, g1, job.iteration);
  }
  if (!issue_ts_.empty()) issue_ts_[slot(job.iteration)] = g1;
  return &job;
}

void Session::MergeStrand::merge(WorkerResult& result) {
  const auto m0 = Clock::now();
  const fuzz::FuzzJob& job = inflight_.front();
  ++merged_;
  o_.iterations.add(lane_);
  if (!issue_ts_.empty()) {
    o_.h_iter.record(lane_, to_ns(m0 - issue_ts_[slot(job.iteration)]));
  }
  const CampaignResult& r = merger_.result();
  const std::size_t prev_lp =
      r.history.empty() ? 0 : r.history.back().covered_pdlc;
  const std::size_t prev_points =
      r.history.empty() ? 0 : r.history.back().coverage_points;
  const std::size_t prev_vulns = r.vulns.size();

  if (merger_.merge(result)) {
    scheduler_.feedback(job.program, job.iteration);
  }

  const IterationRecord& rec = r.history.back();
  o_.findings.add(lane_, r.vulns.size() - prev_vulns);
  o_.covered_pdlc.set(rec.covered_pdlc);
  o_.coverage_points.set(rec.coverage_points);

  if (rec.covered_pdlc > prev_lp || rec.coverage_points > prev_points) {
    const CoverageEvent event{rec.iteration, rec.covered_pdlc - prev_lp,
                              rec.coverage_points - prev_points,
                              rec.covered_pdlc, rec.coverage_points};
    for (const auto& fn : session_.coverage_observers_) fn(event);
  }
  for (std::size_t v = prev_vulns; v < r.vulns.size(); ++v) {
    const VulnEvent event{rec.iteration, r.vulns[v]};
    for (const auto& fn : session_.vuln_observers_) fn(event);
  }
  if (!spec_.vcd_out.empty() && r.vulns.size() > prev_vulns) {
    pending_vcd_.push_back(
        {job.program, rec.iteration, prev_vulns, r.vulns.size()});
  }
  if (spec_.progress_interval != 0 &&
      rec.iteration >= last_progress_ + spec_.progress_interval) {
    last_progress_ = rec.iteration;
    const ProgressEvent event{rec.iteration,    spec_.budget.iterations,
                              rec.covered_pdlc, rec.coverage_points,
                              r.vulns.size(),   elapsed()};
    for (const auto& fn : session_.progress_observers_) fn(event);
  }

  // Budgets + custom stop conditions, all evaluated after the merge.
  const CampaignBudget& budget = spec_.budget;
  const bool lp = spec_.feedback == FeedbackMode::kLeakagePath;
  if ((lp ? rec.covered_pdlc : rec.coverage_points) >
      (lp ? prev_lp : prev_points)) {
    last_gain_iteration_ = rec.iteration;
  }
  if (budget.max_vulns != 0 && r.vulns.size() >= budget.max_vulns) {
    stopped_ = true;
  }
  if (budget.plateau != 0 &&
      rec.iteration - last_gain_iteration_ >= budget.plateau) {
    stopped_ = true;
  }
  if (budget.max_seconds > 0 && elapsed() >= budget.max_seconds) {
    stopped_ = true;
  }
  for (const StopCondition& stop : session_.stops_) {
    if (stopped_) break;
    if (stop(r)) stopped_ = true;
  }

  const std::uint64_t iteration = job.iteration;
  inflight_.pop_front();
  const auto m1 = Clock::now();
  const std::uint64_t d = to_ns(m1 - m0);
  o_.merge.add(lane_, d);
  o_.h_merge.record(lane_, d);
  if (tracer_ != nullptr) {
    tracer_->record(lane_, "merge", "pipeline", m0, m1, iteration);
  }
}

bool Session::MergeStrand::at_boundary() {
  const auto& sinks = session_.frontier_sinks_;
  if (!sinks.empty()) {
    const double t = raw_elapsed();
    bool any_due = false;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (t - sink_last_fire_[i] >= sinks[i].second) any_due = true;
    }
    if (any_due) {
      const CampaignFrontier f = frontier(false);
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        if (t - sink_last_fire_[i] >= sinks[i].second) {
          sink_last_fire_[i] = t;
          sinks[i].first(f);
        }
      }
    }
  }
  const std::uint64_t at =
      session_.pause_at_.load(std::memory_order_relaxed);
  pause_hit_ = session_.pause_requested_.load(std::memory_order_relaxed) ||
               (at != 0 && merged_ >= at);
  return pause_hit_;
}

CampaignFrontier Session::MergeStrand::frontier(bool completed) const {
  CampaignFrontier f;
  f.merged = merged_;
  f.completed = completed;
  f.fuzzer = scheduler_.save_state();
  f.in_flight.assign(inflight_.begin(), inflight_.end());
  f.result = merger_.result();
  f.result.seconds = elapsed();
  f.lp_covered = merger_.lp_covered_mask();
  f.coverage_mask = merger_.code_coverage().points();
  f.toggle_bits = merger_.code_coverage().toggle_bits();
  f.last_gain_iteration = last_gain_iteration_;
  f.last_progress = last_progress_;
  f.pending_vcd = pending_vcd_;
  f.prior_seconds = f.result.seconds;
  return f;
}

void Session::MergeStrand::finish() {
  // A durable state file whose `completed` flag is set is how a
  // restarted daemon (or a --resume of a finished campaign) knows to
  // report the stored result instead of re-running.
  if (!session_.frontier_sinks_.empty()) {
    const CampaignFrontier f = frontier(true);
    for (const auto& [sink, interval] : session_.frontier_sinks_) sink(f);
  }
}

// ---- Session ----------------------------------------------------------------

Session::Session(CampaignSpec spec)
    : spec_((spec.validate(), std::move(spec))),
      offline_(run_offline_phase(spec_.core, spec_.pdlc)),
      sim_(spec_.core),
      // Constructed eagerly (not lazily in run()) so the pointer never
      // mutates once the session is shared — the serve daemon scrapes
      // metrics_snapshot() from connection threads while the runner is
      // inside run(). resolved_jobs() is constant for the session's
      // life, so the run()-time rebuild guard only fires if a run ever
      // needs more lanes than this (it cannot today).
      metrics_(std::make_unique<obs::Registry>(resolved_jobs() + 1)) {}

Session& Session::on_progress(std::function<void(const ProgressEvent&)> fn) {
  progress_observers_.push_back(std::move(fn));
  return *this;
}

Session& Session::on_new_coverage(
    std::function<void(const CoverageEvent&)> fn) {
  coverage_observers_.push_back(std::move(fn));
  return *this;
}

Session& Session::on_vuln(std::function<void(const VulnEvent&)> fn) {
  vuln_observers_.push_back(std::move(fn));
  return *this;
}

Session& Session::on_finding_minimized(
    std::function<void(const triage::MinimizedEvent&)> fn) {
  minimized_observers_.push_back(std::move(fn));
  return *this;
}

Session& Session::on_frontier(
    std::function<void(const CampaignFrontier&)> sink,
    double min_interval_seconds) {
  frontier_sinks_.emplace_back(std::move(sink), min_interval_seconds);
  return *this;
}

Session& Session::add_stop(StopCondition fn) {
  stops_.push_back(std::move(fn));
  return *this;
}

void Session::resume_from(CampaignFrontier frontier) {
  resume_ = std::make_unique<CampaignFrontier>(std::move(frontier));
  paused_ = false;
}

Session::StopCondition Session::stop_after_iterations(std::uint64_t n) {
  return [n](const CampaignResult& r) { return r.history.size() >= n; };
}

Session::StopCondition Session::stop_on_finding(std::string key_substring) {
  return [key = std::move(key_substring)](const CampaignResult& r) {
    for (const auto& [finding, iteration] : r.first_detection) {
      if (finding.find(key) != std::string::npos) return true;
    }
    return false;
  };
}

std::size_t Session::resolved_jobs() const {
  std::size_t jobs = spec_.jobs;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  // The sliding window keeps at most batch_size jobs in flight across
  // the whole campaign (job k is generated only after iteration
  // k - batch_size merged), so workers beyond that count could never be
  // fed a job; clip rather than park idle threads.
  const std::size_t batch = spec_.batch_size == 0 ? 1 : spec_.batch_size;
  return jobs < batch ? jobs : batch;
}

CampaignResult Session::run() {
  // Resuming a completed frontier: the campaign already ended (budget or
  // stop condition) — re-running would re-evaluate stops one iteration
  // too late and diverge, so hand back the stored result instead.
  if (resume_ && resume_->completed) {
    CampaignResult done = std::move(resume_->result);
    resume_.reset();
    paused_ = false;
    return done;
  }

  // ---- preflight ----------------------------------------------------------
  if (!spec_.vcd_out.empty()) ensure_dir_writable(spec_.vcd_out, "vcd_out");
  if (spec_.triage == TriageMode::kFull) {
    ensure_dir_writable(spec_.triage_out, "triage_out");
  }
  // A failing cadence write mid-campaign would silently lose the resume
  // story, so the state file's directory is probed up front too.
  if (!spec_.state_out.empty()) {
    ensure_parent_writable(spec_.state_out, "state_out");
  }
  if (!spec_.trace_out.empty()) {
    ensure_parent_writable(spec_.trace_out, "trace_out");
  }
  const Clock::time_point t0 = Clock::now();
  const std::size_t jobs = resolved_jobs();
  const std::size_t window = spec_.batch_size == 0 ? 1 : spec_.batch_size;

  // ---- workers and observability ------------------------------------------
  // One simulator per worker, built on the first run() and reused across
  // campaigns; unique_ptr keeps the simulators (and the internal
  // references the LP prober and detector hold into them) at stable
  // addresses. Grown, never shrunk: a later run() may resolve more jobs
  // (the serve daemon rescales a tenant's share as campaigns come and
  // go), and workers hold no campaign state either way.
  while (workers_.size() < jobs) {
    workers_.push_back(std::make_unique<CampaignWorker>(
        spec_.core, offline_, spec_.lp_policy, spec_.detector));
  }
  // One registry shard per lane: workers 0..jobs-1, merge strand at lane
  // `jobs`. The registry is cumulative across run() calls (Prometheus
  // counters are monotonic) and only rebuilt when a later run() needs
  // more lanes; handles are re-fetched every run, so a rebuild is
  // transparent here.
  merge_lane_ = jobs;
  if (metrics_ == nullptr || metrics_->shards() < jobs + 1) {
    metrics_ = std::make_unique<obs::Registry>(jobs + 1);
  }
  tracer_.reset();
  if (!spec_.trace_out.empty()) {
    tracer_ = std::make_unique<obs::TraceRecorder>(jobs + 1,
                                                   kTraceCapacityEvents);
    for (std::size_t w = 0; w < jobs; ++w) {
      tracer_->set_lane_name(w, "worker " + std::to_string(w));
    }
    tracer_->set_lane_name(merge_lane_, "merge strand");
  }

  // ---- the merge strand and the executor ----------------------------------
  // The strand registers the stage instruments, so it is built before
  // the workers attach to the registry and the baseline is taken.
  paused_ = false;
  MergeStrand strand(*this, window, t0, std::move(resume_));
  // Workers beyond this run's job count (a previous run resolved more)
  // are detached so no stale recorder pointer survives.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->set_observability(
        w < jobs ? WorkerObservability{metrics_.get(), tracer_.get(), w,
                                       spec_.metrics}
                 : WorkerObservability{});
  }
  // Baseline for this run's PipelineStats view (registry deltas).
  const obs::Snapshot obs_base = metrics_->snapshot();

  if (jobs == 1) {
    run_serial(strand);
  } else {
    run_window(strand, jobs);
  }

  // Workers have quiesced by here (threads joined), so the snapshot sees
  // every worker's final counts.
  pipeline_stats_ = pipeline_stats_view(obs_base, metrics_->snapshot(), jobs);
  pause_requested_.store(false, std::memory_order_relaxed);
  pause_at_.store(0, std::memory_order_relaxed);

  // ---- pause or finish ----------------------------------------------------
  if (strand.paused()) {
    // Paused mid-campaign: capture the frontier, hand it to every sink
    // (the durable-state write), stash it so the next run() continues,
    // and return the partial result. The deferred waveform drain and
    // triage wait for the completing segment — pending_vcd rides in the
    // frontier — so the eventual file set and triage report are exactly
    // the uninterrupted run's.
    auto frontier = std::make_unique<CampaignFrontier>(strand.frontier(false));
    for (const auto& [sink, interval] : frontier_sinks_) sink(*frontier);
    resume_ = std::move(frontier);
    paused_ = true;
    triage_report_.reset();
    // The trace of the truncated segment is still written (and
    // rewritten if finalize_interrupted() later drains waveforms) so an
    // interrupted campaign leaves an inspectable timeline behind.
    write_trace();
    return strand.take_result();
  }

  strand.finish();
  drain_waveforms(strand.pending_vcd(), strand.result().vulns);
  write_trace();
  CampaignResult result = strand.take_result();
  triage_findings(result.vulns);
  return result;
}

// The definitional loop, on the caller thread: fill the window, then
// simulate the oldest in-flight job, merge it and draw its replacement.
// jobs == 1 runs here — with one worker nothing can overlap, so handing
// jobs to another thread would be pure overhead. It is also the
// reference the window executor is differentially pinned against.
void Session::run_serial(MergeStrand& strand) {
  CampaignWorker& worker = *workers_[0];
  WorkerResult result;
  strand.fill([](const fuzz::FuzzJob&) {});
  while (strand.in_flight() > 0) {
    const fuzz::FuzzJob& job = strand.oldest();
    if (test_job_delay_) test_job_delay_(job, 0);
    worker.process(job, &strand.covered(), result);
    strand.merge(result);
    if (strand.stopped()) return;
    strand.draw();
    if (strand.at_boundary()) return;
  }
}

// The pipelined sliding-window executor. No barrier anywhere: the strand
// pushes each drawn job's slot onto one job queue that every worker pops,
// workers push finished slots onto one completion queue, and this
// (caller) thread merges strictly in iteration order, dispatching job
// k + window the moment iteration k merges. An idle worker always takes
// the oldest queued job, so a slow simulation delays only its own merge
// turn, and the merge strand overlaps simulation completely.
void Session::run_window(MergeStrand& strand, std::size_t jobs) {
  const std::size_t window = strand.window();
  const Instruments& o = strand.obs();
  obs::TraceRecorder* const tracer = tracer_.get();
  const std::size_t lane = merge_lane_;

  // One slot per in-flight iteration: the job rides out to the worker
  // and the result (or the exception that replaced it) rides back in the
  // same slot, so the result shells (windows/lp_hits/coverage buffers)
  // recycle automatically when the slot is reused by a later iteration.
  // alignas(64): neighbouring slots are written by different workers
  // concurrently.
  struct alignas(64) Slot {
    fuzz::FuzzJob job;
    WorkerResult result;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(window);
  util::WorkQueue<std::size_t> job_queue;  // strand -> workers
  util::WorkQueue<std::size_t> completed;  // workers -> strand
  const util::AtomicBitset& covered = strand.covered();

  const auto worker_main = [&](std::size_t w) {
    for (;;) {
      std::size_t s = 0;
      const auto w0 = Clock::now();
      if (!job_queue.pop(s)) return;  // closed and drained
      const auto w1 = Clock::now();
      const std::uint64_t wd = to_ns(w1 - w0);
      o.queue_wait.add(w, wd);
      o.h_queue.record(w, wd);
      if (tracer != nullptr) {
        tracer->record(w, "queue_wait", "pipeline", w0, w1);
      }
      Slot& slot = slots[s];
      try {
        if (test_job_delay_) test_job_delay_(slot.job, w);
        workers_[w]->process(slot.job, &covered, slot.result);
      } catch (...) {
        slot.error = std::current_exception();
      }
      completed.push(s);
    }
  };

  const auto dispatch = [&](const fuzz::FuzzJob& job) {
    const std::size_t s = strand.slot(job.iteration);
    slots[s].job = job;
    job_queue.push(s);
  };

  // Merge every contiguous ready iteration, refilling the window after
  // each merge (the freed slot is exactly the one the drawn job maps
  // to). False once the campaign stops or pauses.
  std::vector<bool> ready(window, false);
  const auto merge_ready = [&] {
    while (strand.in_flight() > 0) {
      const std::size_t s = strand.slot(strand.oldest().iteration);
      if (!ready[s]) return true;
      ready[s] = false;
      strand.merge(slots[s].result);
      if (strand.stopped()) return false;
      if (const fuzz::FuzzJob* job = strand.draw()) dispatch(*job);
      if (strand.at_boundary()) return false;
    }
    return true;
  };

  std::vector<std::thread> threads;
  std::exception_ptr error;
  try {
    threads.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      threads.emplace_back(worker_main, w);
    }
    strand.fill(dispatch);
    while (strand.in_flight() > 0) {
      std::size_t s = 0;
      const auto r0 = Clock::now();
      // Never closed: some in-flight job is queued or running, so a
      // completion is always coming.
      completed.pop(s);
      const auto r1 = Clock::now();
      const std::uint64_t d = to_ns(r1 - r0);
      o.result_wait.add(lane, d);
      o.h_result.record(lane, d);
      if (tracer != nullptr) {
        tracer->record(lane, "result_wait", "pipeline", r0, r1);
      }
      if (slots[s].error) {
        error = slots[s].error;  // a worker failed
        break;
      }
      ready[s] = true;
      if (!merge_ready()) break;
    }
  } catch (...) {
    // An observer, stop condition or frontier sink threw on the strand.
    error = std::current_exception();
  }

  // Shutdown, on every exit path (completion, stop, pause, a worker or
  // strand failure): close the job queue and discard the jobs no worker
  // has started — they are still in the strand's in-flight list, which
  // a pause frontier re-issues — then join the workers, each finishing
  // at most the job in hand. The merged result stays exactly at the
  // stopping iteration. Only then may an error unwind past the slots
  // the workers write.
  job_queue.close();
  std::size_t unstarted = 0;
  while (job_queue.try_pop(unstarted)) {
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

void Session::write_trace() const {
  if (tracer_ == nullptr) return;
  std::ofstream out(spec_.trace_out, std::ios::trunc | std::ios::binary);
  tracer_->write_chrome_trace(out);
}

// Deferred waveform export, off the merge strand. One waveform per
// confirmed (post-dedup) finding. The worker's trace is gone by merge
// time, so the program is re-simulated once on the session simulator —
// same config, same seed-free cold core, hence the identical trace — and
// only the vulnerability window is written. Merge order pinned the
// pending list, so the file set is deterministic across jobs. The
// scenario name prefixes the file so concurrent Sweep scenarios can
// share one vcd_out directory without colliding. The drain is timed into
// the vcd stage counter, span and --stats field.
void Session::drain_waveforms(const std::vector<PendingWaveform>& pending,
                              const std::vector<VulnReport>& vulns) {
  if (spec_.vcd_out.empty() || pending.empty()) return;
  const auto v0 = Clock::now();
  for (const PendingWaveform& p : pending) {
    const sim::RunResult rerun = sim_.run(p.program);
    for (std::size_t v = p.vuln_begin; v < p.vuln_end; ++v) {
      const SpecWindow& w = vulns[v].window;
      snapshot::write_vcd_window_file(
          spec_.vcd_out + "/" + sanitized_scenario_name(spec_.name) +
              "_vuln_iter" + std::to_string(p.iteration) + "_" +
              std::to_string(v) + ".vcd",
          rerun.trace, w.start_cycle, w.end_cycle);
    }
  }
  const auto v1 = Clock::now();
  metrics_->counter("stage/vcd_ns").add(merge_lane_, to_ns(v1 - v0));
  // The --stats view was built before the drain ran; account it here.
  pipeline_stats_.vcd_seconds += to_seconds(v1 - v0);
  if (tracer_ != nullptr) {
    tracer_->record(merge_lane_, "vcd_drain", "pipeline", v0, v1);
  }
}

// Post-campaign triage: minimize every confirmed finding (and package
// repro bundles under `full`). Runs strictly after the campaign loop on
// the already-merged findings, so the CampaignResult is identical
// whether triage is on or off.
void Session::triage_findings(const std::vector<VulnReport>& vulns) {
  triage_report_.reset();
  if (spec_.triage == TriageMode::kOff || vulns.empty()) return;
  std::vector<triage::TriageInput> inputs;
  inputs.reserve(vulns.size());
  for (const VulnReport& v : vulns) inputs.push_back({dedup_key(v), v.program});
  triage::TriageOptions options;
  options.mode = spec_.triage;
  options.out_dir = spec_.triage_out;
  // The campaign's batch-size clip on `jobs` does not apply here:
  // minimization rounds fan out dozens of candidates regardless of the
  // batch shape, so triage gets the spec's raw worker request (0 = all
  // hardware threads, resolved by the Minimizer).
  options.jobs = spec_.jobs;
  triage_report_ = std::make_unique<triage::TriageReport>(triage::run_triage(
      spec_, offline_, inputs, options,
      [this](const triage::MinimizedEvent& event) {
        for (const auto& fn : minimized_observers_) fn(event);
      }));
}

void Session::finalize_interrupted() {
  if (!paused_ || !resume_) return;
  // The frontier pinned the pending list at the merge boundary, so the
  // file set matches what the resumed campaign will eventually write for
  // these findings; the rewritten trace then carries the drain's span.
  drain_waveforms(resume_->pending_vcd, resume_->result.vulns);
  write_trace();
  triage_findings(resume_->result.vulns);
}

}  // namespace specure::core
