#include "core/session.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/campaign_scheduler.hpp"
#include "snapshot/vcd.hpp"
#include "util/fs.hpp"
#include "util/ring.hpp"

namespace specure::core {

namespace {

/// Fail before the campaign starts, not at the first confirmed finding.
/// Throws SpecError, which the CLI maps to a usage error; `key` names
/// the spec key in the message (vcd_out / triage_out).
void ensure_dir_writable(const std::string& dir, const char* key) {
  const std::string problem = util::ensure_dir_writable(dir);
  if (!problem.empty()) {
    throw SpecError(std::string(key) + " directory '" + dir + "' " + problem);
  }
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

}  // namespace

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

Session& Session::on_batch_merged(std::function<void(const BatchEvent&)> fn) {
  batch_observers_.push_back(std::move(fn));
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

Session::StopCondition Session::stop_after_vulns(std::size_t n) {
  return [n](const CampaignResult& r) { return r.vulns.size() >= n; };
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

  if (!spec_.vcd_out.empty()) ensure_dir_writable(spec_.vcd_out, "vcd_out");
  if (spec_.triage == TriageMode::kFull) {
    ensure_dir_writable(spec_.triage_out, "triage_out");
  }
  if (!spec_.state_out.empty()) {
    // The state file's parent directory must exist and be writable
    // before the campaign starts — a failing cadence write mid-campaign
    // would silently lose the resume story.
    const std::size_t slash = spec_.state_out.find_last_of('/');
    ensure_dir_writable(
        slash == std::string::npos ? "." : spec_.state_out.substr(0, slash),
        "state_out");
  }
  if (!spec_.trace_out.empty()) {
    const std::size_t slash = spec_.trace_out.find_last_of('/');
    ensure_dir_writable(
        slash == std::string::npos ? "." : spec_.trace_out.substr(0, slash),
        "trace_out");
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Wall-clock within this run() segment; elapsed() adds the time the
  // campaign accumulated before a pause, so max_seconds budgets and
  // report timings span resumes.
  const auto raw_elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const auto elapsed = [&] { return prior_seconds_ + raw_elapsed(); };
  const std::size_t jobs = resolved_jobs();
  const std::size_t window = spec_.batch_size == 0 ? 1 : spec_.batch_size;
  const CampaignBudget& budget = spec_.budget;

  // One simulator per worker, built on the first run() and reused across
  // campaigns; unique_ptr keeps the simulators (and the internal
  // references the LP prober and detector hold into them) at stable
  // addresses. Grown, never shrunk: a later run() may resolve more jobs
  // (the serve daemon rescales a tenant's share as campaigns come and
  // go), and workers hold no campaign state either way.
  if (workers_.size() < jobs) {
    workers_.reserve(jobs);
    for (std::size_t w = workers_.size(); w < jobs; ++w) {
      workers_.push_back(std::make_unique<CampaignWorker>(
          spec_.core, offline_, spec_.lp_policy, spec_.detector));
    }
  }

  pipeline_stats_ = PipelineStats{};
  pipeline_stats_.workers.resize(jobs);
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto secs = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  const auto to_ns = [](std::chrono::steady_clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };

  // ---- observability setup ----------------------------------------------
  // One registry shard per pipeline lane: workers 0..jobs-1, merge
  // strand at lane `jobs`. The registry is cumulative across run()
  // calls (Prometheus counters are monotonic) and only rebuilt when a
  // later run() needs more lanes; handles are re-fetched every run, so
  // a rebuild is transparent here.
  const bool tracing = !spec_.trace_out.empty();
  const bool hist = spec_.metrics;
  merge_lane_ = jobs;
  if (metrics_ == nullptr || metrics_->shards() < jobs + 1) {
    metrics_ = std::make_unique<obs::Registry>(jobs + 1);
  }
  obs::Registry& reg = *metrics_;
  struct {
    obs::Counter generate, merge, result_wait, vcd;     // merge strand
    obs::Counter execute, queue_wait, jobs_done;        // per worker
    obs::Counter iterations, findings;
    obs::Gauge covered_pdlc, coverage_points;
    obs::Histogram h_generate, h_queue, h_execute, h_result, h_merge,
        h_iter;
  } o;
  o.generate = reg.counter("stage/generate_ns");
  o.merge = reg.counter("stage/merge_ns");
  o.result_wait = reg.counter("stage/result_wait_ns");
  o.vcd = reg.counter("stage/vcd_ns");
  o.execute = reg.counter("worker/execute_ns");
  o.queue_wait = reg.counter("worker/queue_wait_ns");
  o.jobs_done = reg.counter("worker/jobs");
  o.iterations = reg.counter("campaign/iterations");
  o.findings = reg.counter("campaign/findings");
  o.covered_pdlc = reg.gauge("campaign/covered_pdlc");
  o.coverage_points = reg.gauge("campaign/coverage_points");
  if (hist) {
    // Registered only when spec.metrics is on, so a metrics=off session
    // exports no empty histogram families.
    o.h_generate = reg.histogram("hist/generate_ns");
    o.h_queue = reg.histogram("hist/queue_wait_ns");
    o.h_execute = reg.histogram("hist/execute_ns");
    o.h_result = reg.histogram("hist/result_wait_ns");
    o.h_merge = reg.histogram("hist/merge_ns");
    o.h_iter = reg.histogram("hist/iter_latency_ns");
  }
  tracer_.reset();
  if (tracing) {
    tracer_ = std::make_unique<obs::TraceRecorder>(jobs + 1,
                                                   kTraceCapacityEvents);
    for (std::size_t w = 0; w < jobs; ++w) {
      tracer_->set_lane_name(w, "worker " + std::to_string(w));
    }
    tracer_->set_lane_name(merge_lane_, "merge strand");
  }
  // Workers beyond this run's job count (a previous run resolved more)
  // are detached so no stale recorder pointer survives.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->set_observability(
        w < jobs ? WorkerObservability{&reg, tracer_.get(), w, hist}
                 : WorkerObservability{});
  }
  // Baseline for this run's PipelineStats view (registry deltas).
  const obs::Snapshot obs_base = reg.snapshot();

  // ---- shared in-order merge step ---------------------------------------
  // Both executors implement the same generation contract (job k is
  // generated from the merged state through iteration k - window) and
  // funnel every result through this single-threaded step, strictly in
  // iteration order — which is what makes the CampaignResult independent
  // of the executor and the worker count.
  std::uint64_t last_gain_iteration = 0;
  std::uint64_t last_progress = 0;
  std::uint64_t batch_index = 0;
  std::size_t merges_since_event = 0;
  bool stopped = false;
  bool paused = false;

  // Deferred waveform export: confirmed findings are recorded here at
  // merge time and re-simulated after the campaign loop (the merge strand
  // is the scaling bottleneck; a re-simulation per finding on it was the
  // single largest serial term). Merge order pins the file set.
  std::vector<PendingWaveform> pending_vcd;

  // ---- durable-state bookkeeping (resume frontier) -----------------------
  // `inflight` mirrors, on the merge strand, the jobs issued but not yet
  // merged (never more than one window): every job enters through
  // draw_job and leaves in merge_one, so at any merge boundary the deque
  // is exactly the frontier's in_flight list. `replay` holds a resumed
  // frontier's in-flight jobs; draw_job serves them before asking the
  // scheduler, which re-dispatches the interrupted window verbatim (the
  // jobs cannot be regenerated — drawing them mutated corpus energy).
  std::deque<fuzz::FuzzJob> inflight;
  std::deque<fuzz::FuzzJob> replay;
  std::uint64_t merged_total = 0;

  CampaignScheduler scheduler(spec_.fuzzer, spec_.rng_seed,
                              budget.iterations);
  ResultMerger merger(offline_, sim_.signal_db(), spec_.feedback,
                      spec_.lp_policy, spec_.mst_sample_rows);

  if (resume_) {
    const CampaignFrontier& f = *resume_;
    scheduler.restore(f.fuzzer);
    merger.restore(f.result, f.lp_covered, f.coverage_points, f.toggle_bits);
    replay.assign(f.in_flight.begin(), f.in_flight.end());
    merged_total = f.merged;
    last_gain_iteration = f.last_gain_iteration;
    last_progress = f.last_progress;
    batch_index = f.batch_index;
    merges_since_event = static_cast<std::size_t>(f.merges_since_event);
    pending_vcd.assign(f.pending_vcd.begin(), f.pending_vcd.end());
    prior_seconds_ = f.prior_seconds;
    resume_.reset();
  } else {
    prior_seconds_ = 0;
  }
  paused_ = false;

  // Issue timestamps for the iteration-latency histogram (draw -> merge,
  // the full pipeline residence time of one iteration). Indexed by slot,
  // like everything else keyed on absolute iteration numbers.
  std::vector<std::chrono::steady_clock::time_point> issue_ts(
      hist ? window : 0);

  const auto draw_job = [&](fuzz::FuzzJob& out) {
    if (!replay.empty()) {
      out = std::move(replay.front());
      replay.pop_front();
    } else if (!scheduler.next_job(out)) {
      return false;
    }
    inflight.push_back(out);
    if (!issue_ts.empty()) {
      issue_ts[(out.iteration - 1) % window] = now();
    }
    return true;
  };

  const auto merge_one = [&](WorkerResult& result, const fuzz::FuzzJob& job,
                             std::chrono::steady_clock::time_point m0) {
    inflight.pop_front();  // `job` is always the oldest in-flight iteration
    ++merged_total;
    o.iterations.add(merge_lane_);
    if (!issue_ts.empty()) {
      o.h_iter.record(merge_lane_,
                      to_ns(m0 - issue_ts[(job.iteration - 1) % window]));
    }
    const CampaignResult& live = merger.result();
    const std::size_t prev_lp =
        live.history.empty() ? 0 : live.history.back().covered_pdlc;
    const std::size_t prev_points =
        live.history.empty() ? 0 : live.history.back().coverage_points;
    const std::size_t prev_vulns = live.vulns.size();

    if (merger.merge(result)) {
      scheduler.feedback(job.program, job.iteration);
    }

    const CampaignResult& r = merger.result();
    const IterationRecord& rec = r.history.back();
    o.findings.add(merge_lane_, r.vulns.size() - prev_vulns);
    o.covered_pdlc.set(rec.covered_pdlc);
    o.coverage_points.set(rec.coverage_points);

    if (rec.covered_pdlc > prev_lp || rec.coverage_points > prev_points) {
      const CoverageEvent event{rec.iteration,
                                rec.covered_pdlc - prev_lp,
                                rec.coverage_points - prev_points,
                                rec.covered_pdlc, rec.coverage_points};
      for (const auto& fn : coverage_observers_) fn(event);
    }
    for (std::size_t v = prev_vulns; v < r.vulns.size(); ++v) {
      const VulnEvent event{rec.iteration, r.vulns[v]};
      for (const auto& fn : vuln_observers_) fn(event);
    }
    if (!spec_.vcd_out.empty() && r.vulns.size() > prev_vulns) {
      pending_vcd.push_back(
          {job.program, rec.iteration, prev_vulns, r.vulns.size()});
    }
    if (spec_.progress_interval != 0 &&
        rec.iteration >= last_progress + spec_.progress_interval) {
      last_progress = rec.iteration;
      const ProgressEvent event{rec.iteration,     budget.iterations,
                                rec.covered_pdlc,  rec.coverage_points,
                                r.vulns.size(),    elapsed()};
      for (const auto& fn : progress_observers_) fn(event);
    }

    // Budgets + custom stop conditions, all evaluated after the merge.
    const std::size_t metric = spec_.feedback == FeedbackMode::kLeakagePath
                                   ? rec.covered_pdlc
                                   : rec.coverage_points;
    const std::size_t prev_metric =
        spec_.feedback == FeedbackMode::kLeakagePath ? prev_lp : prev_points;
    if (metric > prev_metric) last_gain_iteration = rec.iteration;

    if (budget.max_vulns != 0 && r.vulns.size() >= budget.max_vulns) {
      stopped = true;
    }
    if (budget.plateau != 0 &&
        rec.iteration - last_gain_iteration >= budget.plateau) {
      stopped = true;
    }
    if (budget.max_seconds > 0 && elapsed() >= budget.max_seconds) {
      stopped = true;
    }
    for (const StopCondition& stop : stops_) {
      if (stopped) break;
      if (stop(r)) stopped = true;
    }

    // A full window of iterations merged: fire the cadence event (a stop
    // mid-window leaves the window partially merged, eventless — same as
    // the old mid-batch stop).
    ++merges_since_event;
    if (!stopped && merges_since_event == window) {
      const BatchEvent event{batch_index++, merges_since_event,
                             rec.iteration, elapsed()};
      merges_since_event = 0;
      for (const auto& fn : batch_observers_) fn(event);
    }
  };

  // ---- frontier capture + pause hook -------------------------------------
  // Both executors call post_merge() after every merge_one + window
  // refill — the only points where the frontier invariant holds (jobs
  // issued through merged + |inflight|, feedback applied through merged).
  const auto capture_frontier = [&](bool completed) {
    CampaignFrontier f;
    f.merged = merged_total;
    f.completed = completed;
    f.fuzzer = scheduler.save_state();
    f.in_flight.assign(inflight.begin(), inflight.end());
    f.result = merger.result();
    f.result.seconds = elapsed();
    f.lp_covered = merger.lp_covered_mask();
    const auto& points = merger.code_coverage().points();
    f.coverage_points.assign(points.begin(), points.end());
    std::sort(f.coverage_points.begin(), f.coverage_points.end());
    f.toggle_bits = merger.code_coverage().toggle_bits();
    f.last_gain_iteration = last_gain_iteration;
    f.last_progress = last_progress;
    f.batch_index = batch_index;
    f.merges_since_event = merges_since_event;
    f.pending_vcd = pending_vcd;
    f.prior_seconds = f.result.seconds;
    return f;
  };

  // Per-sink cadence clock (run wall-clock of the last fire), so two
  // sinks with different intervals throttle independently.
  std::vector<double> sink_last_fire(frontier_sinks_.size(), 0);
  const auto post_merge = [&]() -> bool {  // true = pause at this boundary
    if (!frontier_sinks_.empty()) {
      const double t = raw_elapsed();
      bool any_due = false;
      for (std::size_t i = 0; i < frontier_sinks_.size(); ++i) {
        if (t - sink_last_fire[i] >= frontier_sinks_[i].second) {
          any_due = true;
        }
      }
      if (any_due) {
        const CampaignFrontier f = capture_frontier(false);
        for (std::size_t i = 0; i < frontier_sinks_.size(); ++i) {
          if (t - sink_last_fire[i] >= frontier_sinks_[i].second) {
            sink_last_fire[i] = t;
            frontier_sinks_[i].first(f);
          }
        }
      }
    }
    if (pause_requested_.load(std::memory_order_relaxed)) return true;
    const std::uint64_t at = pause_at_.load(std::memory_order_relaxed);
    return at != 0 && merged_total >= at;
  };

  // ---- barrier executor (reference) -------------------------------------
  // One window at a time: execute every pending job with a parallel_for
  // convoy, then merge in order, generating job k + window right after
  // iteration k merges. Same operation sequence as the pipelined
  // executor, so bit-identical results — kept as the differential
  // reference and as the inline path for jobs == 1 (where a pipeline
  // cannot overlap anything and passing jobs between threads would be
  // pure overhead).
  const auto run_barrier = [&] {
    if (!pool_ || pool_->contexts() < jobs) {
      pool_ = std::make_unique<util::ThreadPool>(jobs);
    }
    util::ThreadPool& pool = *pool_;
    const util::AtomicBitset& covered = merger.lp_covered_shadow();

    std::vector<fuzz::FuzzJob> pending;
    std::vector<fuzz::FuzzJob> next;
    pending.reserve(window);
    next.reserve(window);
    {
      const auto g0 = now();
      fuzz::FuzzJob job;
      while (pending.size() < window && draw_job(job)) {
        pending.push_back(std::move(job));
      }
      const auto g1 = now();
      o.generate.add(merge_lane_, to_ns(g1 - g0));
      if (tracing) {
        tracer_->record(merge_lane_, "generate", "pipeline", g0, g1);
      }
    }

    std::vector<WorkerResult> results(window);
    while (!stopped && !paused && !pending.empty()) {
      // Even split: task i runs on worker i mod jobs. Worker results are
      // assignment-independent, so the split never affects the result.
      pool.parallel_for(jobs, [&](std::size_t worker, std::size_t) {
        std::uint64_t done = 0;
        for (std::size_t task = worker; task < pending.size();
             task += jobs) {
          const auto j0 = now();
          if (test_job_delay_) test_job_delay_(pending[task], worker);
          workers_[worker]->process(pending[task], &covered, results[task]);
          const std::uint64_t d = to_ns(now() - j0);
          o.execute.add(worker, d);
          o.h_execute.record(worker, d);
          ++done;
        }
        o.jobs_done.add(worker, done);
      });

      next.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        {
          const auto m0 = now();
          merge_one(results[i], pending[i], m0);
          const auto m1 = now();
          const std::uint64_t d = to_ns(m1 - m0);
          o.merge.add(merge_lane_, d);
          o.h_merge.record(merge_lane_, d);
          if (tracing) {
            tracer_->record(merge_lane_, "merge", "pipeline", m0, m1,
                            pending[i].iteration);
          }
        }
        if (stopped) break;
        const auto g0 = now();
        fuzz::FuzzJob job;
        const bool drew = draw_job(job);
        const auto g1 = now();
        const std::uint64_t gd = to_ns(g1 - g0);
        o.generate.add(merge_lane_, gd);
        if (drew) {
          o.h_generate.record(merge_lane_, gd);
          if (tracing) {
            tracer_->record(merge_lane_, "generate", "pipeline", g0, g1,
                            job.iteration);
          }
          next.push_back(std::move(job));
        }
        // Pause boundary: the frontier invariant holds right here (merge
        // + refill done). The rest of this window stays un-merged — its
        // jobs are in `inflight`, so the frontier re-executes them.
        if (post_merge()) {
          paused = true;
          break;
        }
      }
      pending.swap(next);
    }
  };

  // ---- pipelined sliding-window executor --------------------------------
  // No barrier anywhere: jobs flow to workers through per-worker SPSC
  // queues, results flow back through one MPSC ring, and this (caller)
  // thread merges strictly in iteration order, dispatching job k + window
  // the moment iteration k merges. Workers never park while in-flight
  // work exists, and the merge strand overlaps simulation completely.
  const auto run_window = [&] {
    // One slot per in-flight iteration: the job rides out to the worker
    // and the result rides back in the same slot, so the result shells
    // (windows/lp_hits/coverage buffers) recycle automatically when the
    // slot is reused by a later iteration. alignas(64): neighbouring
    // slots are written by different workers concurrently.
    struct alignas(64) Slot {
      fuzz::FuzzJob job;
      WorkerResult result;
    };
    std::vector<Slot> slots(window);
    // In-flight jobs never exceed the window, so capacity window + 1
    // guarantees push() always succeeds (no producer-side blocking).
    std::vector<std::unique_ptr<util::SpscRing<std::uint32_t>>> job_queues;
    job_queues.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      job_queues.push_back(
          std::make_unique<util::SpscRing<std::uint32_t>>(window + 1));
    }
    util::MpscRing<std::uint32_t> completed(window + jobs + 1);
    constexpr std::uint32_t kErrorSignal = 0xffffffffu;
    std::mutex error_mu;
    std::exception_ptr worker_error;

    const util::AtomicBitset& covered = merger.lp_covered_shadow();

    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      threads.emplace_back([&, w] {
        util::SpscRing<std::uint32_t>& queue = *job_queues[w];
        try {
          std::uint32_t s = 0;
          for (;;) {
            const auto w0 = now();
            if (!queue.pop_wait(s)) break;  // closed and drained
            const auto w1 = now();
            const std::uint64_t wd = to_ns(w1 - w0);
            o.queue_wait.add(w, wd);
            o.h_queue.record(w, wd);
            if (tracing) {
              tracer_->record(w, "queue_wait", "pipeline", w0, w1);
            }
            Slot& slot = slots[s];
            if (test_job_delay_) test_job_delay_(slot.job, w);
            workers_[w]->process(slot.job, &covered, slot.result);
            const std::uint64_t ed = to_ns(now() - w1);
            o.execute.add(w, ed);
            o.h_execute.record(w, ed);
            o.jobs_done.add(w);
            completed.push(s);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lk(error_mu);
            if (!worker_error) worker_error = std::current_exception();
          }
          completed.push(kErrorSignal);
        }
      });
    }

    // Dispatch bookkeeping (merger-thread-private): each job goes to the
    // worker with the fewest jobs in flight, the lowest index on ties.
    std::vector<std::size_t> slot_worker(window, 0);
    std::vector<std::size_t> load(jobs, 0);
    std::vector<bool> ready(window, false);
    // Absolute campaign counters (resume continues mid-stream; slot
    // indices are functions of absolute iteration numbers, so the slot
    // mapping is identical to the uninterrupted run's).
    std::uint64_t issued = merged_total;
    std::uint64_t merged = merged_total;

    // The most recent dispatch's worker (merge-strand private), tagged
    // onto the generate span when tracing.
    std::size_t last_assigned = 0;

    const auto dispatch = [&](fuzz::FuzzJob&& job) {
      const auto s =
          static_cast<std::uint32_t>((job.iteration - 1) % window);
      std::size_t w = 0;
      for (std::size_t i = 1; i < jobs; ++i) {
        if (load[i] < load[w]) w = i;
      }
      last_assigned = w;
      slot_worker[s] = w;
      ++load[w];
      slots[s].job = std::move(job);
      ++issued;
      if (!job_queues[w]->push(s)) {
        throw std::logic_error("pipeline job queue overflow (window bug)");
      }
    };

    {
      const auto g0 = now();
      fuzz::FuzzJob job;
      while (issued - merged < window && draw_job(job)) {
        dispatch(std::move(job));
      }
      const auto g1 = now();
      o.generate.add(merge_lane_, to_ns(g1 - g0));
      if (tracing) {
        tracer_->record(merge_lane_, "generate", "pipeline", g0, g1);
      }
    }

    bool failed = false;
    while (!stopped && !paused && !failed && merged < issued) {
      std::uint32_t s = 0;
      {
        const auto r0 = now();
        if (!completed.pop_wait(s)) break;  // unreachable: never closed
        const auto r1 = now();
        const std::uint64_t d = to_ns(r1 - r0);
        o.result_wait.add(merge_lane_, d);
        o.h_result.record(merge_lane_, d);
        if (tracing) {
          tracer_->record(merge_lane_, "result_wait", "pipeline", r0, r1);
        }
      }
      if (s == kErrorSignal) {
        failed = true;
        break;
      }
      ready[s] = true;
      // Merge every contiguous ready iteration, refilling the window
      // after each merge (the freed slot is exactly the one iteration
      // merged + window maps to).
      for (;;) {
        const std::size_t ns = static_cast<std::size_t>(merged % window);
        if (!ready[ns]) break;
        ready[ns] = false;
        Slot& slot = slots[ns];
        --load[slot_worker[ns]];
        {
          const auto m0 = now();
          merge_one(slot.result, slot.job, m0);
          const auto m1 = now();
          const std::uint64_t d = to_ns(m1 - m0);
          o.merge.add(merge_lane_, d);
          o.h_merge.record(merge_lane_, d);
          if (tracing) {
            tracer_->record(merge_lane_, "merge", "pipeline", m0, m1,
                            slot.job.iteration);
          }
        }
        ++merged;
        if (stopped) break;
        const auto g0 = now();
        fuzz::FuzzJob job;
        const bool drew = draw_job(job);
        std::uint64_t drawn_iteration = 0;
        if (drew) {
          drawn_iteration = job.iteration;
          dispatch(std::move(job));
        }
        const auto g1 = now();
        const std::uint64_t gd = to_ns(g1 - g0);
        o.generate.add(merge_lane_, gd);
        if (drew) {
          o.h_generate.record(merge_lane_, gd);
          if (tracing) {
            tracer_->record(
                merge_lane_, "generate", "pipeline", g0, g1, drawn_iteration,
                {"assigned_worker", static_cast<std::int64_t>(last_assigned)});
          }
        }
        if (post_merge()) {
          paused = true;
          break;
        }
      }
    }

    // Shutdown (normal completion, stop condition, or worker failure):
    // close the queues — workers finish what is already queued (at most
    // one window across all of them) and exit; leftover completions are
    // drained and discarded, leaving the merged result exactly at the
    // stopping iteration.
    for (auto& queue : job_queues) queue->close();
    for (auto& t : threads) t.join();
    std::uint32_t s = 0;
    while (completed.pop(s)) {
    }
    if (worker_error) std::rethrow_exception(worker_error);
  };

  if (spec_.pipeline == PipelineMode::kBarrier || jobs == 1) {
    run_barrier();
  } else {
    run_window();
  }

  // PipelineStats is the registry delta over this run's baseline.
  // Workers have quiesced by here (threads joined, parallel_for
  // returned), so the snapshot sees every worker's final counts.
  pipeline_stats_ = pipeline_stats_view(obs_base, reg.snapshot(), jobs);

  const auto flush_trace = [&] {
    if (tracer_ != nullptr) {
      std::ofstream out(spec_.trace_out,
                        std::ios::trunc | std::ios::binary);
      tracer_->write_chrome_trace(out);
    }
  };

  pause_requested_.store(false, std::memory_order_relaxed);
  pause_at_.store(0, std::memory_order_relaxed);

  // A pause that landed exactly on the campaign's last merge is a
  // completion: nothing is in flight and the budget is fully issued.
  if (paused && inflight.empty() && scheduler.exhausted()) paused = false;

  if (paused) {
    // Paused mid-campaign: capture the frontier, hand it to every sink
    // (the durable-state write), stash it so the next run() continues,
    // and return the partial result. The deferred waveform drain and
    // triage wait for the completing segment — pending_vcd rides in the
    // frontier — so the eventual file set and triage report are exactly
    // the uninterrupted run's.
    CampaignFrontier frontier = capture_frontier(false);
    for (auto& [sink, interval] : frontier_sinks_) sink(frontier);
    CampaignResult result = merger.take_result();
    result.seconds = elapsed();
    resume_ = std::make_unique<CampaignFrontier>(std::move(frontier));
    paused_ = true;
    triage_report_.reset();
    // The trace of the truncated segment is still written (and
    // rewritten if finalize_interrupted() later drains waveforms) so an
    // interrupted campaign leaves an inspectable timeline behind.
    flush_trace();
    return result;
  }

  // Final partial window: merged but never announced (mirrors the old
  // engine's tail batch event).
  if (!stopped && merges_since_event > 0 &&
      !merger.result().history.empty()) {
    const BatchEvent event{batch_index++, merges_since_event,
                           merger.result().history.back().iteration,
                           elapsed()};
    for (const auto& fn : batch_observers_) fn(event);
  }

  // The completed frontier still goes to every sink: a durable state
  // file whose `completed` flag is set is how a restarted daemon (or a
  // --resume of a finished campaign) knows to report the stored result
  // instead of re-running.
  if (!frontier_sinks_.empty()) {
    const CampaignFrontier frontier = capture_frontier(true);
    for (auto& [sink, interval] : frontier_sinks_) sink(frontier);
  }

  // Deferred waveform export, off the merge strand. One waveform per
  // confirmed (post-dedup) finding. The worker's trace is gone by merge
  // time, so the program is re-simulated once on the session simulator —
  // same config, same seed-free cold core, hence the identical trace —
  // and only the vulnerability window is written. Merge order pinned the
  // pending list, so the file set is deterministic across jobs and
  // executors. The scenario name prefixes the file so concurrent Sweep
  // scenarios can share one vcd_out directory without colliding.
  if (!pending_vcd.empty()) {
    const auto v0 = now();
    for (const PendingWaveform& pending : pending_vcd) {
      const sim::RunResult rerun = sim_.run(pending.program);
      for (std::size_t v = pending.vuln_begin; v < pending.vuln_end; ++v) {
        const SpecWindow& w = merger.result().vulns[v].window;
        snapshot::write_vcd_window_file(
            spec_.vcd_out + "/" + sanitized_scenario_name(spec_.name) +
                "_vuln_iter" + std::to_string(pending.iteration) + "_" +
                std::to_string(v) + ".vcd",
            rerun.trace, w.start_cycle, w.end_cycle);
      }
    }
    const auto v1 = now();
    o.vcd.add(merge_lane_, to_ns(v1 - v0));
    if (tracing) {
      tracer_->record(merge_lane_, "vcd_drain", "pipeline", v0, v1);
    }
    // The stats view above was built before this drain ran; patch the
    // wall clock in directly so the --stats footer still accounts it.
    pipeline_stats_.vcd_seconds += secs(v1 - v0);
  }

  flush_trace();

  CampaignResult result = merger.take_result();
  result.seconds = elapsed();

  // Post-campaign triage: minimize every confirmed finding (and package
  // repro bundles under `full`). Runs strictly after the campaign loop on
  // the already-merged findings, so the CampaignResult above is identical
  // whether triage is on or off.
  triage_report_.reset();
  if (spec_.triage != TriageMode::kOff && !result.vulns.empty()) {
    std::vector<triage::TriageInput> inputs;
    inputs.reserve(result.vulns.size());
    for (const VulnReport& v : result.vulns) {
      inputs.push_back({dedup_key(v), v.program});
    }
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
  return result;
}

void Session::finalize_interrupted() {
  if (!paused_ || !resume_) return;
  const CampaignFrontier& f = *resume_;

  // Drain the frontier's deferred waveforms (same re-simulation scheme as
  // the completed path; the frontier pinned the pending list at the merge
  // boundary, so the file set matches what the resumed campaign will
  // eventually write for these findings). The drain is timed into the
  // same stage counter / span / --stats field the completed path uses —
  // an interrupted run's footer accounts its waveform cost too.
  if (!spec_.vcd_out.empty() && !f.pending_vcd.empty()) {
    const auto v0 = std::chrono::steady_clock::now();
    for (const PendingWaveform& pending : f.pending_vcd) {
      const sim::RunResult rerun = sim_.run(pending.program);
      for (std::size_t v = pending.vuln_begin; v < pending.vuln_end; ++v) {
        const SpecWindow& w = f.result.vulns[v].window;
        snapshot::write_vcd_window_file(
            spec_.vcd_out + "/" + sanitized_scenario_name(spec_.name) +
                "_vuln_iter" + std::to_string(pending.iteration) + "_" +
                std::to_string(v) + ".vcd",
            rerun.trace, w.start_cycle, w.end_cycle);
      }
    }
    const auto v1 = std::chrono::steady_clock::now();
    const auto drained =
        std::chrono::duration_cast<std::chrono::nanoseconds>(v1 - v0);
    if (metrics_ != nullptr) {
      metrics_->counter("stage/vcd_ns")
          .add(merge_lane_, static_cast<std::uint64_t>(drained.count()));
    }
    pipeline_stats_.vcd_seconds +=
        std::chrono::duration<double>(drained).count();
    if (tracer_ != nullptr && !spec_.trace_out.empty()) {
      tracer_->record(merge_lane_, "vcd_drain", "pipeline", v0, v1);
      std::ofstream out(spec_.trace_out,
                        std::ios::trunc | std::ios::binary);
      tracer_->write_chrome_trace(out);
    }
  }

  // Triage the findings confirmed so far.
  triage_report_.reset();
  if (spec_.triage != TriageMode::kOff && !f.result.vulns.empty()) {
    std::vector<triage::TriageInput> inputs;
    inputs.reserve(f.result.vulns.size());
    for (const VulnReport& v : f.result.vulns) {
      inputs.push_back({dedup_key(v), v.program});
    }
    triage::TriageOptions options;
    options.mode = spec_.triage;
    options.out_dir = spec_.triage_out;
    options.jobs = spec_.jobs;
    triage_report_ = std::make_unique<triage::TriageReport>(triage::run_triage(
        spec_, offline_, inputs, options,
        [this](const triage::MinimizedEvent& event) {
          for (const auto& fn : minimized_observers_) fn(event);
        }));
  }
}

}  // namespace specure::core
