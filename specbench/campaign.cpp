// Campaign passes: an untraced Session run (the timed path) and the traced
// serial replay through the public layer calls (the per-layer split and
// the correctness oracle).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <fstream>
#include <random>
#include <thread>

#include "core/campaign_scheduler.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"
#include "obs/prometheus.hpp"
#include "sim/core.hpp"
#include "specbench.hpp"

namespace specbench {

using namespace specure;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t result_digest(const core::CampaignResult& result) {
  Fnv f;
  f.u64(result.history.size());
  for (const core::IterationRecord& r : result.history) {
    f.u64(r.iteration);
    f.u64(r.covered_pdlc);
    f.u64(r.coverage_points);
    f.u64(r.vulns_found);
    f.u64(r.cycles);
  }
  f.u64(lp_covered(result));
  f.u64(result.total_windows);
  f.u64(result.mispredicted_windows);
  f.u64(result.pdlc_total);
  f.u64(result.vulns.size());
  for (const core::VulnReport& v : result.vulns) f.str(core::dedup_key(v));
  f.u64(result.first_detection.size());
  for (const auto& [key, iteration] : result.first_detection) {
    f.str(key);
    f.u64(iteration);
  }
  return f.h;
}

double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double proc_status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

// ---- open-loop generator ---------------------------------------------------

OpenLoop::OpenLoop(double period_ms, std::uint64_t seed)
    : period_ms_(period_ms), seed_(seed) {}

void OpenLoop::run(const std::function<bool(std::size_t)>& request,
                   const std::function<bool()>& done) {
  std::mt19937_64 rng(seed_);
  std::uniform_real_distribution<double> quarter(0, period_ms_ / 4);
  const double phase_ms = quarter(rng);
  const Clock::time_point start = Clock::now();
  const auto at_ms = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  for (std::size_t i = 0; !done(); ++i) {
    const Clock::time_point due = at_ms(
        phase_ms + static_cast<double>(i) * period_ms_ + quarter(rng));
    // A request found overdue waited for the previous one: timed from its
    // due time, that wait counts against the system. A generator that
    // slept and woke late was itself held up by the host; that delay is
    // reported as lateness, not as request latency.
    Clock::time_point origin = due;
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      origin = Clock::now();
    }
    late_ms_max_ = std::max(late_ms_max_,
                            seconds_between(due, Clock::now()) * 1e3);
    bool ok = false;
    try {
      ok = request(i);
    } catch (const std::exception&) {
      ok = false;
    }
    latencies_ms_.push_back(seconds_between(origin, Clock::now()) * 1e3);
    if (!ok) ++failed_;
  }
}

// ---- untraced Session run --------------------------------------------------

SessionRun run_session(const core::CampaignSpec& spec,
                       double scrape_period_ms, std::uint64_t scrape_seed) {
  SessionRun out;
  const Clock::time_point t0 = Clock::now();
  core::Session session(spec);
  out.jobs = session.resolved_jobs();

  // The first job a worker picks up marks the end of set-up: Session
  // construction (offline phase + simulator) plus the lazy worker build
  // and first window draw inside run(). The hook is called once per job
  // on the worker thread and records only that first timestamp.
  std::atomic<bool> started{false};
  Clock::time_point first_job{};
  session.set_test_job_delay([&](const fuzz::FuzzJob&, std::size_t) {
    if (!started.load(std::memory_order_relaxed) &&
        !started.exchange(true, std::memory_order_relaxed)) {
      first_job = Clock::now();
    }
  });

  std::atomic<bool> finished{false};
  std::thread scraper;
  OpenLoop loop(scrape_period_ms > 0 ? scrape_period_ms : 1, scrape_seed);
  if (scrape_period_ms > 0) {
    scraper = std::thread([&] {
      std::string text;
      loop.run(
          [&](std::size_t) {
            // Before run() registers its instruments the page is empty,
            // which is still a valid scrape; only an exception fails.
            text.clear();
            obs::render_prometheus(session.metrics_snapshot(), "", text);
            return true;
          },
          [&] { return finished.load(std::memory_order_acquire); });
    });
  }

  const Clock::time_point r0 = Clock::now();
  try {
    out.result = session.run();
  } catch (...) {
    finished.store(true, std::memory_order_release);
    if (scraper.joinable()) scraper.join();
    throw;
  }
  const Clock::time_point r1 = Clock::now();
  finished.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();

  // Worker threads are joined inside run(), which orders their write of
  // first_job before this read.
  if (!started.load(std::memory_order_relaxed)) first_job = r0;
  out.setup_s = seconds_between(t0, first_job);
  out.campaign_s = seconds_between(first_job, r1);
  out.metrics = session.metrics_snapshot();
  out.pipeline = session.pipeline_stats();
  out.scrape_ms = loop.latencies_ms();
  out.scrape_late_ms_max = loop.late_ms_max();
  out.scrape_failed = loop.failed();
  return out;
}

// ---- traced replay ---------------------------------------------------------

Replay replay(const core::CampaignSpec& spec) {
  Replay out;
  const auto secs_since = [](Clock::time_point a) {
    return seconds_between(a, Clock::now());
  };

  Clock::time_point t = Clock::now();
  const core::OfflineResult offline =
      core::run_offline_phase(spec.core, spec.pdlc);
  out.offline_s = secs_since(t);
  out.pdlc_channels = offline.pdlc.size();

  const sim::Simulator sim(spec.core);
  const core::LpCoverageMap probe(offline.ifg, offline.pdlc, sim.signal_db(),
                                  spec.lp_policy);
  const core::VulnerabilityDetector detector(offline.ifg, offline.pdlc,
                                             sim.signal_db(), spec.detector);
  core::CampaignScheduler scheduler(spec.fuzzer, spec.rng_seed,
                                    spec.budget.iterations);
  core::ResultMerger merger(offline, sim.signal_db(), spec.feedback,
                            spec.lp_policy, spec.mst_sample_rows);
  sim::RunResult run(&sim.signal_db());
  core::WorkerResult shell;
  const std::size_t window = spec.batch_size == 0 ? 1 : spec.batch_size;
  const std::uint64_t max_cycles = spec.core.max_cycles;

  out.sim_ms.reserve(spec.budget.iterations);
  out.lp_ms.reserve(spec.budget.iterations);
  out.detect_ms.reserve(spec.budget.iterations);
  out.merge_us.reserve(spec.budget.iterations);

  const Clock::time_point begin = Clock::now();
  std::deque<fuzz::FuzzJob> pending;
  const auto draw = [&] {
    const Clock::time_point g = Clock::now();
    fuzz::FuzzJob job;
    const bool drew = scheduler.next_job(job);
    out.fuzz_s += secs_since(g);
    if (drew) pending.push_back(std::move(job));
  };
  for (std::size_t i = 0; i < window; ++i) draw();

  while (!pending.empty()) {
    const fuzz::FuzzJob job = std::move(pending.front());
    pending.pop_front();

    // Same buffer recycling as CampaignWorker::process: the shell's
    // coverage buckets go back into the run before it is reset.
    run.coverage = std::move(shell.coverage);
    t = Clock::now();
    sim.run(job.program, run);
    double d = secs_since(t);
    out.sim_s += d;
    out.sim_ms.push_back(d * 1e3);
    out.cycles += run.cycles;
    out.capped_runs += run.cycles >= max_cycles ? 1 : 0;
    out.trace_events += run.trace.event_count();

    shell.iteration = job.iteration;
    t = Clock::now();
    core::extract_mst(run.trace, shell.windows);
    out.mst_s += secs_since(t);
    out.windows += shell.windows.size();

    t = Clock::now();
    probe.probe(run.trace, shell.windows, &merger.lp_covered_shadow(),
                shell.lp_hits);
    d = secs_since(t);
    out.lp_s += d;
    out.lp_ms.push_back(d * 1e3);
    out.lp_hits += shell.lp_hits.size();

    t = Clock::now();
    shell.reports = detector.analyze(run, shell.windows);
    d = secs_since(t);
    out.detect_s += d;
    out.detect_ms.push_back(d * 1e3);
    out.reports += shell.reports.size();
    for (core::VulnReport& report : shell.reports) report.program = job.program;
    shell.coverage = std::move(run.coverage);
    shell.cycles = run.cycles;

    t = Clock::now();
    const bool interesting = merger.merge(shell);
    d = secs_since(t);
    out.merge_s += d;
    out.merge_us.push_back(d * 1e6);
    ++out.iterations;

    if (interesting) {
      t = Clock::now();
      scheduler.feedback(job.program, job.iteration);
      out.fuzz_s += secs_since(t);
      ++out.fed_back;
    }
    draw();
  }
  out.wall_s = secs_since(begin);
  out.result = merger.take_result();
  out.result.seconds = out.wall_s;
  return out;
}

}  // namespace specbench
