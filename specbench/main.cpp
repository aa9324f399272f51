// specbench — the repository benchmark.
//
//   specbench --workload NAME --seed N --seconds S --trace 0|1 [--heldout]
//
// Workloads (BENCHMARK.json at the repo root carries the same names):
//   lp-default     preset default, campaign seed 7 (held-out 11), jobs=1,
//                  window 32, 3000 iterations: the LP probe dominates and
//                  the campaign finds nothing.
//   full-parallel  preset full, campaign seed 9 (held-out 21), jobs=3,
//                  window 32, 6000 iterations: finding-heavy, three
//                  workers feed the serial merge strand.
//   daemon-mixed   an in-process serve::Server (2 pool workers, slice 32)
//                  running default seed 7 and full seed 9 (held-out 11 and
//                  21) for 1500 iterations each, while one client sends
//                  alternating metrics/status requests every 4 ms.
//
// Fuzzing campaigns differ by up to 2.5x in cost and coverage from one
// campaign seed to the next, so each workload pins its campaign seeds and
// `--seed` drives the open-loop request schedule instead; `--heldout`
// swaps in the held-out campaign seeds for checking a claim on inputs it
// was not tuned on.
//
// --trace 0 times the workload on its real entry points (Session::run, or
// the daemon over its socket), repeating it until S seconds have passed,
// and prints the end-to-end metrics. --trace 1 instead replays every
// campaign serially through the public layer calls, timing each call, and
// prints the per-layer metrics. Both check every campaign result: the
// digest of each timed run must equal the serial replay's, and each daemon
// tenant's report must equal a solo Session run's in every field except
// wall-clock time. The expected outputs are computed in every invocation.
// The last line of stdout is one JSON object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "specbench.hpp"

namespace {

using namespace specure;
using specbench::Clock;

struct Workload {
  std::string name;
  std::vector<core::CampaignSpec> campaigns;  ///< main campaign seeds
  std::vector<core::CampaignSpec> heldout;    ///< held-out campaign seeds
  bool served = false;  ///< timed through the daemon, not Session::run
};

core::CampaignSpec campaign(const char* preset, std::uint64_t seed,
                            std::size_t jobs, std::uint64_t iterations) {
  core::CampaignSpec spec = core::CampaignSpec::preset(preset);
  spec.rng_seed = seed;
  spec.jobs = jobs;
  spec.batch_size = 32;
  spec.budget.iterations = iterations;
  return spec;
}

std::vector<Workload> workloads() {
  return {
      {"lp-default",
       {campaign("default", 7, 1, 3000)},
       {campaign("default", 11, 1, 3000)},
       false},
      {"full-parallel",
       {campaign("full", 9, 3, 6000)},
       {campaign("full", 21, 3, 6000)},
       false},
      {"daemon-mixed",
       {campaign("default", 7, 1, 1500), campaign("full", 9, 1, 1500)},
       {campaign("default", 11, 1, 1500), campaign("full", 21, 1, 1500)},
       true},
  };
}

/// Request period of the open-loop scraper beside a Session: the 4 ms of
/// the daemon workload's client (served.cpp), the one request rate the
/// workloads define. It runs only in a repetition of its own, outside the
/// iters_per_sec timing: its thread competes with the workers.
constexpr double kSessionScrapeMs = 4;

/// Extra set-up-only runs per invocation (set-up takes milliseconds, so a
/// median over many keeps one descheduled run from moving setup_s).
constexpr int kSetupRuns = 10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t iterations_of(const std::vector<core::CampaignSpec>& specs) {
  std::uint64_t n = 0;
  for (const core::CampaignSpec& s : specs) n += s.budget.iterations;
  return n;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---- --trace 0: timed end-to-end runs ---------------------------------------

/// Set-up time alone, measured kSetupRuns times: a Session whose budget
/// is one window (the set-up draws a full first window), or a daemon that
/// is shut down right after acknowledging the submits.
std::vector<double> setup_samples(const Workload& w) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (w.served) {
      specbench::ServedOptions options;
      options.dir = "served";
      options.setup_only = true;
      samples.push_back(specbench::run_served(w.campaigns, options).setup_s);
      continue;
    }
    double setup = 0;
    for (core::CampaignSpec spec : w.campaigns) {
      spec.budget.iterations = spec.batch_size;
      setup += specbench::run_session(spec).setup_s;
    }
    samples.push_back(setup);
  }
  return samples;
}

/// What one timed repetition of a workload measured.
struct Rep {
  double rate = 0;   ///< merged iterations per second
  double setup = 0;  ///< seconds
  std::vector<double> latency_ms;
  double late_ms_max = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::size_t lp = 0;
  /// Per campaign: the result digest (Session workloads) or the tenant's
  /// normalized report (daemon), compared against the oracle.
  std::vector<std::string> outputs;
  std::vector<std::uint64_t> output_ops;  ///< ops a mismatch fails
};

std::size_t report_lp(const std::string& report) {
  const std::string key = "\"covered_pdlc\": ";
  const std::size_t at = report.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoull(report.c_str() + at + key.size(), nullptr, 10);
}

/// One fresh Session per campaign; with `scrape`, the open-loop scraper
/// runs beside each.
Rep session_rep(const Workload& w, bool scrape, std::uint64_t schedule_seed) {
  Rep rep;
  std::uint64_t merged = 0;
  double campaign_s = 0;
  for (const core::CampaignSpec& spec : w.campaigns) {
    const specbench::SessionRun run = specbench::run_session(
        spec, scrape ? kSessionScrapeMs : 0, schedule_seed);
    rep.ops += spec.budget.iterations;
    rep.failed += run.scrape_failed;
    merged += run.result.history.size();
    campaign_s += run.campaign_s;
    rep.setup += run.setup_s;
    append(rep.latency_ms, run.scrape_ms);
    rep.late_ms_max = std::max(rep.late_ms_max, run.scrape_late_ms_max);
    rep.lp += specbench::lp_covered(run.result);
    rep.outputs.push_back(hex(specbench::result_digest(run.result)));
    rep.output_ops.push_back(spec.budget.iterations);
  }
  rep.rate = static_cast<double>(merged) / campaign_s;
  return rep;
}

Rep served_rep(const Workload& w, std::uint64_t schedule_seed) {
  specbench::ServedOptions options;
  options.seed = schedule_seed;
  options.dir = "served";
  specbench::ServedRun run = specbench::run_served(w.campaigns, options);
  Rep rep;
  rep.rate = static_cast<double>(iterations_of(w.campaigns)) / run.campaign_s;
  rep.setup = run.setup_s;
  rep.latency_ms = std::move(run.latency_ms);
  rep.late_ms_max = run.late_ms_max;
  rep.ops = run.requests;
  rep.failed = run.failed;
  for (const std::string& report : run.reports) rep.lp += report_lp(report);
  rep.outputs = std::move(run.reports);
  rep.output_ops.assign(rep.outputs.size(), 1);
  return rep;
}

/// The expected per-campaign outputs: the serial replay's result digest
/// (Session workloads) or a solo Session run's normalized report (daemon
/// tenants).
std::vector<std::string> oracle(const Workload& w) {
  std::vector<std::string> expected;
  for (const core::CampaignSpec& spec : w.campaigns) {
    if (w.served) {
      const core::CampaignSpec solo = specbench::tenant_spec(spec);
      expected.push_back(
          specbench::normalized_report(solo, core::Session(solo).run()));
    } else {
      expected.push_back(
          hex(specbench::result_digest(specbench::replay(spec).result)));
    }
  }
  return expected;
}

/// --trace 0: set-up samples, then fresh Sessions (or daemons) until the
/// time is up, then, beside a Session, one repetition with the scraper,
/// and finally every repetition's outputs checked against the oracle.
void timed(const Workload& w, std::uint64_t seed, double seconds, Outcome& out) {
  std::vector<double> setup = setup_samples(w);
  // The latency median is taken per repetition and reported as the median
  // over repetitions, like the rate, so one stalled stretch of the host
  // moves at most one repetition.
  std::vector<double> rate, p50;
  std::size_t scrapes = 0;
  std::vector<Rep> reps;
  double peak_rss = 0;
  double late_max = 0;
  std::size_t lp = 0;
  // Runs one repetition and records it; `timed_rep` says whether its rate
  // and set-up count (the daemon's scrapes are always part of its timing).
  const auto repetition = [&](std::uint64_t i, bool timed_rep) {
    try {
      const bool scrape = w.served || !timed_rep;
      Rep rep = w.served ? served_rep(w, seed * 1000 + i)
                         : session_rep(w, scrape, seed * 1000 + i);
      out.attempted += rep.ops;
      if (rep.failed != 0) out.fail(rep.failed, "request failures");
      if (timed_rep) {
        rate.push_back(rep.rate);
        setup.push_back(rep.setup);
      }
      if (scrape) {
        p50.push_back(specbench::percentile(rep.latency_ms, 50));
        scrapes += rep.latency_ms.size();
        late_max = std::max(late_max, rep.late_ms_max);
      }
      lp = rep.lp;
      std::printf("rep %llu%s: %.1f it/s, setup %.4f s, %zu scrapes, "
                  "p50 %.3f ms, p95 %.3f ms\n",
                  static_cast<unsigned long long>(i),
                  timed_rep ? "" : " (scrape pass, untimed)", rep.rate,
                  rep.setup, rep.latency_ms.size(),
                  specbench::percentile(rep.latency_ms, 50),
                  specbench::percentile(rep.latency_ms, 95));
      reps.push_back(std::move(rep));
    } catch (const std::exception& e) {
      out.attempted += 1;
      out.fail(1, e.what());
    }
  };
  const Clock::time_point begin = Clock::now();
  std::uint64_t i = 0;
  for (; i == 0 || specbench::seconds_between(begin, Clock::now()) < seconds;
       ++i) {
    repetition(i, true);
    // The high-water mark of one workload repetition (after the set-up
    // samples), before later repetitions add allocator drift.
    if (i == 0) peak_rss = specbench::peak_rss_mib();
  }
  if (!w.served) repetition(i, false);

  const std::vector<std::string> expected = oracle(w);
  for (const Rep& rep : reps) {
    for (std::size_t k = 0; k < expected.size(); ++k) {
      if (k >= rep.outputs.size() || rep.outputs[k] != expected[k]) {
        out.fail(k < rep.output_ops.size() ? rep.output_ops[k] : 1,
                 "campaign " + std::to_string(k) + " result differs from " +
                     (w.served ? "its solo Session run" : "the serial replay"));
      }
    }
  }
  if (!w.served) {
    for (const std::string& digest : expected) {
      std::printf("result digest %s (serial replay)\n", digest.c_str());
    }
  }

  out.add("iters_per_sec", specbench::median(rate), "1/s");
  out.add("setup_s", specbench::median(setup), "s");
  out.add("peak_rss_mib", peak_rss, "MiB");
  out.add("lp_coverage", static_cast<double>(lp), "channels");
  out.add("scrape_p50_ms", specbench::median(p50), "ms");
  std::printf("%zu repetitions, %zu scrapes, generator late by at most "
              "%.3f ms\n",
              reps.size(), scrapes, late_max);
}

// ---- --trace 1: the per-layer pass ------------------------------------------

/// Per-layer totals of a set of replays.
struct Layers {
  specbench::Replay sum;  ///< counters and times summed; samples pooled
  std::size_t lp_coverage = 0;
  std::size_t vulns = 0;

  void add(const specbench::Replay& r) {
    sum.offline_s += r.offline_s;
    sum.pdlc_channels += r.pdlc_channels;
    sum.wall_s += r.wall_s;
    sum.fuzz_s += r.fuzz_s;
    sum.sim_s += r.sim_s;
    sum.mst_s += r.mst_s;
    sum.lp_s += r.lp_s;
    sum.detect_s += r.detect_s;
    sum.merge_s += r.merge_s;
    append(sum.sim_ms, r.sim_ms);
    append(sum.lp_ms, r.lp_ms);
    append(sum.detect_ms, r.detect_ms);
    append(sum.merge_us, r.merge_us);
    sum.iterations += r.iterations;
    sum.cycles += r.cycles;
    sum.capped_runs += r.capped_runs;
    sum.trace_events += r.trace_events;
    sum.windows += r.windows;
    sum.lp_hits += r.lp_hits;
    sum.reports += r.reports;
    sum.fed_back += r.fed_back;
    lp_coverage += specbench::lp_covered(r.result);
    vulns += r.result.vulns.size();
  }
  double pct(double s) const { return sum.wall_s > 0 ? 100 * s / sum.wall_s : 0; }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void add_split(Outcome& out, const std::string& prefix, const Layers& l) {
  out.add(prefix + ".fuzz_pct", l.pct(l.sum.fuzz_s), "%");
  out.add(prefix + ".sim_pct", l.pct(l.sum.sim_s), "%");
  out.add(prefix + ".mst_pct", l.pct(l.sum.mst_s), "%");
  out.add(prefix + ".lp_pct", l.pct(l.sum.lp_s), "%");
  out.add(prefix + ".detect_pct", l.pct(l.sum.detect_s), "%");
  out.add(prefix + ".merge_pct", l.pct(l.sum.merge_s), "%");
}

void traced(const Workload& w, std::uint64_t seed, Outcome& out) {
  // 1. Untraced Sessions at the workload's own configuration: the
  //    executor and cache counters come from their registries.
  std::vector<specbench::SessionRun> sessions;
  for (const core::CampaignSpec& spec : w.campaigns) {
    sessions.push_back(specbench::run_session(
        w.served ? specbench::tenant_spec(spec) : spec));
  }
  // 2. Untraced Sessions on the cold path the replay also takes
  //    (checkpoint off, detailed tier, jobs=1): the tracing-overhead base.
  double cold_s = 0;
  std::vector<std::uint64_t> cold_digest;
  for (core::CampaignSpec spec : w.campaigns) {
    spec.checkpoint = false;
    spec.tier = core::TierMode::kDetailed;
    spec.jobs = 1;
    const specbench::SessionRun run = specbench::run_session(spec);
    // From the first job on, like the replay's loop: neither side counts
    // the set-up before it.
    cold_s += run.campaign_s;
    cold_digest.push_back(specbench::result_digest(run.result));
  }
  // 3. The traced replays, main and held-out campaign seeds.
  Layers main, heldout;
  for (std::size_t k = 0; k < w.campaigns.size(); ++k) {
    const specbench::Replay r = specbench::replay(w.campaigns[k]);
    main.add(r);
    out.attempted += r.iterations;
    const std::uint64_t d = specbench::result_digest(r.result);
    const std::uint64_t s = specbench::result_digest(sessions[k].result);
    std::printf("campaign seed %llu: replay %s session %s cold %s\n",
                static_cast<unsigned long long>(w.campaigns[k].rng_seed),
                hex(d).c_str(), hex(s).c_str(), hex(cold_digest[k]).c_str());
    if (d != s || d != cold_digest[k]) {
      out.fail(r.iterations, "replay and Session results differ");
    }
  }
  for (const core::CampaignSpec& spec : w.heldout) {
    heldout.add(specbench::replay(spec));
  }
  // 4. The same campaigns served by the daemon: the serve layer.
  specbench::ServedOptions options;
  options.seed = seed;
  options.dir = "served";
  const specbench::ServedRun served =
      specbench::run_served(w.campaigns, options);
  if (served.failed != 0) out.fail(0, "daemon request failures");
  for (std::size_t k = 0; k < w.campaigns.size(); ++k) {
    const std::string expected = specbench::normalized_report(
        specbench::tenant_spec(w.campaigns[k]), sessions[k].result);
    if (k >= served.reports.size() || served.reports[k] != expected) {
      out.fail(0, "served report differs from the Session run");
    }
  }

  const specbench::Replay& m = main.sum;
  out.add("lp.probe_s", m.lp_s, "s");
  out.add("lp.probe_ms_p50", specbench::percentile(m.lp_ms, 50), "ms");
  out.add("lp.probe_ms_p99", specbench::percentile(m.lp_ms, 99), "ms");
  out.add("lp.ns_per_window", ratio(m.lp_s * 1e9, static_cast<double>(m.windows)), "ns");
  out.add("lp.hits", static_cast<double>(m.lp_hits), "count");
  out.add("sim.run_s", m.sim_s, "s");
  out.add("sim.run_ms_p50", specbench::percentile(m.sim_ms, 50), "ms");
  out.add("sim.run_ms_p99", specbench::percentile(m.sim_ms, 99), "ms");
  out.add("sim.cycles", static_cast<double>(m.cycles), "count");
  out.add("sim.ns_per_cycle", ratio(m.sim_s * 1e9, static_cast<double>(m.cycles)), "ns");
  out.add("sim.trace_events_per_cycle",
          ratio(static_cast<double>(m.trace_events), static_cast<double>(m.cycles)),
          "events");
  out.add("sim.capped_runs", static_cast<double>(m.capped_runs), "count");
  out.add("mst.extract_s", m.mst_s, "s");
  out.add("mst.windows", static_cast<double>(m.windows), "count");
  out.add("mst.windows_per_run",
          ratio(static_cast<double>(m.windows), static_cast<double>(m.iterations)),
          "count");
  out.add("detect.analyze_s", m.detect_s, "s");
  out.add("detect.analyze_ms_p99", specbench::percentile(m.detect_ms, 99), "ms");
  out.add("detect.reports", static_cast<double>(m.reports), "count");
  out.add("detect.distinct_ratio",
          ratio(static_cast<double>(main.vulns), static_cast<double>(m.reports)),
          "ratio");
  out.add("merge.merge_s", m.merge_s, "s");
  out.add("merge.merge_us_p50", specbench::percentile(m.merge_us, 50), "us");
  out.add("merge.merge_us_p99", specbench::percentile(m.merge_us, 99), "us");
  out.add("fuzz.generate_s", m.fuzz_s, "s");
  out.add("fuzz.interesting_ratio",
          ratio(static_cast<double>(m.fed_back), static_cast<double>(m.iterations)),
          "ratio");

  // The executor's own registry, through its PipelineStats view. At
  // jobs > 1 the window executor records the merge strand's result wait
  // and each worker's queue wait. At jobs = 1 the barrier path executes
  // inline and records no waits, so they are derived from the campaign's
  // wall time T (first job start to the end of run(), set-up excluded):
  // the strand waits for results whenever it is not generating or merging
  // (T - generate - merge), the worker whenever it is not executing
  // (T - execute).
  double wall = 0, strand = 0, result_wait = 0, queue_wait = 0, exec = 0,
         lanes = 0, hits = 0, misses = 0, handoffs = 0;
  obs::HistogramSnapshot latency;
  for (const specbench::SessionRun& run : sessions) {
    const obs::Snapshot& snap = run.metrics;
    const core::PipelineStats& ps = run.pipeline;
    const double gen = ps.generate_seconds;
    const double merge = ps.merge_seconds;
    double execute = 0, queued = 0;
    for (const core::PipelineWorkerStats& worker : ps.workers) {
      execute += worker.execute_seconds;
      queued += worker.queue_wait_seconds;
    }
    const double jobs = static_cast<double>(run.jobs);
    wall += run.campaign_s;
    strand += gen + merge;
    if (run.jobs > 1) {
      result_wait += ps.result_wait_seconds;
      queue_wait += queued;
    } else {
      result_wait += std::max(0.0, run.campaign_s - gen - merge);
      queue_wait += std::max(0.0, run.campaign_s - execute);
    }
    exec += execute;
    lanes += jobs * run.campaign_s;
    hits += static_cast<double>(snap.counter_value("checkpoint/cache_hits"));
    misses += static_cast<double>(snap.counter_value("checkpoint/cache_misses"));
    handoffs += static_cast<double>(snap.counter_value("tier/handoffs"));
    if (const obs::HistogramSnapshot* h = snap.histogram("hist/iter_latency_ns")) {
      latency.count += h->count;
      latency.sum += h->sum;
      for (std::size_t b = 0; b < latency.buckets.size(); ++b) {
        latency.buckets[b] += h->buckets[b];
      }
    }
  }
  out.add("session.merge_strand_busy", ratio(strand, wall), "ratio");
  out.add("session.result_wait_s", result_wait, "s");
  out.add("session.queue_wait_s", queue_wait, "s");
  out.add("session.worker_utilization", ratio(exec, lanes), "ratio");
  out.add("session.iter_latency_ms_p50", latency.percentile(50) / 1e6, "ms");
  out.add("session.iter_latency_ms_p99", latency.percentile(99) / 1e6, "ms");
  out.add("session.checkpoint_hit_ratio", ratio(hits, hits + misses), "ratio");
  out.add("session.tier_handoffs", handoffs, "count");

  out.add("serve.slices", served.slices, "count");
  out.add("serve.state_writes", served.state_writes, "count");
  out.add("serve.state_write_ms_p50", served.state_write_ms_p50, "ms");
  out.add("serve.state_write_ms_p95", served.state_write_ms_p95, "ms");
  out.add("serve.state_bytes", served.state_bytes, "bytes");
  out.add("serve.vmsize_mib_end", served.vmsize_mib, "MiB");
  out.add("serve.threads_end", served.threads, "count");
  out.add("scrape.late_ms_max", served.late_ms_max, "ms");
  out.add("scrape.p95_ms", specbench::percentile(served.latency_ms, 95), "ms");

  out.add("offline.phase_s", m.offline_s, "s");
  out.add("offline.pdlc_channels", static_cast<double>(m.pdlc_channels), "count");
  out.add("trace.overhead_pct", ratio(100 * (m.wall_s - cold_s), cold_s), "%");
  out.add("trace.layer_sum_pct", main.pct(m.layer_sum_s()), "%");

  add_split(out, "split", main);
  add_split(out, "heldout", heldout);
  out.add("heldout.lp_coverage", static_cast<double>(heldout.lp_coverage),
          "channels");
  out.add("heldout.reports", static_cast<double>(heldout.sum.reports), "count");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "specbench: %s\nusage: specbench --workload "
               "lp-default|full-parallel|daemon-mixed --seed N --seconds S "
               "--trace 0|1 [--heldout]\n",
               why);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool use_heldout = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--heldout") {
      use_heldout = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (seconds < 0 || (trace != 0 && trace != 1)) {
    return usage("--seconds and --trace are required");
  }
  const Workload* chosen = nullptr;
  const std::vector<Workload> all = workloads();
  for (const Workload& w : all) {
    if (w.name == name) chosen = &w;
  }
  if (chosen == nullptr) return usage(("unknown workload '" + name + "'").c_str());
  Workload w = *chosen;
  if (use_heldout) std::swap(w.campaigns, w.heldout);

  std::printf("specbench: workload %s, seed %llu, %s\n", w.name.c_str(),
              static_cast<unsigned long long>(seed),
              trace == 1 ? "traced layer pass" : "timed runs");
  Outcome out;
  try {
    if (trace == 1) {
      traced(w, seed, out);
    } else {
      timed(w, seed, seconds, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specbench: %s\n", e.what());
    return 1;
  }

  for (const Metric& m : out.metrics) {
    std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("ops %llu, failed_ops %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::string json = "{\"correct\": ";
  json += out.correct && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", out.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + out.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
