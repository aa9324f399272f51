// The observability layer's two contracts:
//
//  1. Instrument correctness — sharded counters merge exactly, log2
//     histogram buckets land on their boundaries, snapshots taken while
//     writers run never tear an individual cell, Chrome trace JSON is
//     well-formed (validated with the project's JSON parser, util/json).
//
//  2. Result-neutrality — a campaign's CampaignResult is bit-identical
//     with metrics/tracing on or off, at jobs 1 (the serial loop) and 4
//     (the window executor), and an interrupted run still materializes
//     its pipeline stats. This is the load-bearing pin: every
//     instrumentation site in session/worker code is wall-clock-only by
//     construction, and this differential catches any future site that
//     forgets.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign_equal.hpp"
#include "core/campaign_worker.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "riscv/program.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace specure {
namespace {

// ---------------------------------------------------------------- registry --

TEST(ObsRegistry, ShardedCounterMergesAcrossLanes) {
  obs::Registry reg(4);
  obs::Counter c = reg.counter("test/counter");
  c.add(0, 10);
  c.add(1, 20);
  c.add(3, 5);
  c.add(3);  // default increment

  const obs::Snapshot snap = reg.snapshot();
  const obs::CounterSnapshot* cs = snap.counter("test/counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->total, 36u);
  ASSERT_EQ(cs->shards.size(), 4u);
  EXPECT_EQ(cs->shards[0], 10u);
  EXPECT_EQ(cs->shards[1], 20u);
  EXPECT_EQ(cs->shards[2], 0u);
  EXPECT_EQ(cs->shards[3], 6u);
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  obs::Registry reg(2);
  obs::Counter a = reg.counter("same/name");
  obs::Counter b = reg.counter("same/name");
  a.add(0, 1);
  b.add(0, 2);
  EXPECT_EQ(reg.snapshot().counter_value("same/name"), 3u);
  // A default-constructed handle is inert, not a crash.
  obs::Counter inert;
  inert.add(0, 99);
  obs::Histogram inert_h;
  inert_h.record(0, 99);
  EXPECT_FALSE(inert.valid());
}

TEST(ObsRegistry, HistogramBucketBoundaries) {
  // The log2 rule: bucket 0 = {0}, bucket i = [2^(i-1), 2^i - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of((1ull << 62) - 1), 62u);
  EXPECT_EQ(obs::Histogram::bucket_of(1ull << 62), 63u);
  // The top bucket absorbs the tail instead of indexing out of range.
  EXPECT_EQ(obs::Histogram::bucket_of(~0ull), 63u);

  obs::Registry reg(1);
  obs::Histogram h = reg.histogram("hist/test_ns");
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull}) {
    h.record(0, v);
  }
  const obs::Snapshot snap = reg.snapshot();  // keep alive: hs points into it
  const obs::HistogramSnapshot* hs = snap.histogram("hist/test_ns");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 7u);
  EXPECT_EQ(hs->sum, 25u);
  EXPECT_EQ(hs->buckets[0], 1u);  // 0
  EXPECT_EQ(hs->buckets[1], 1u);  // 1
  EXPECT_EQ(hs->buckets[2], 2u);  // 2, 3
  EXPECT_EQ(hs->buckets[3], 2u);  // 4, 7
  EXPECT_EQ(hs->buckets[4], 1u);  // 8
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(3), 7u);
}

TEST(ObsRegistry, PercentileInterpolatesWithinBucket) {
  obs::Registry reg(1);
  obs::Histogram h = reg.histogram("hist/p_ns");
  // 100 samples of the value 1000: every percentile must land inside
  // bucket_of(1000) = [512, 1023].
  for (int i = 0; i < 100; ++i) h.record(0, 1000);
  const obs::Snapshot snap = reg.snapshot();  // keep alive: hs points into it
  const obs::HistogramSnapshot* hs = snap.histogram("hist/p_ns");
  ASSERT_NE(hs, nullptr);
  for (const double p : {1.0, 50.0, 99.0}) {
    const double v = hs->percentile(p);
    EXPECT_GE(v, 512.0) << "p" << p;
    EXPECT_LE(v, 1023.0) << "p" << p;
  }
  EXPECT_EQ(reg.snapshot().histogram("hist/absent"), nullptr);
}

TEST(ObsRegistry, SnapshotConsistentUnderConcurrentWriters) {
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  obs::Registry reg(kWriters);
  obs::Counter c = reg.counter("test/concurrent");
  obs::Histogram h = reg.histogram("hist/concurrent_ns");

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.add(w);
        h.record(w, i);
      }
    });
  }
  // Snapshots taken mid-flight: totals only ever grow, and no individual
  // cell read tears (each is one atomic load).
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const std::uint64_t now = reg.snapshot().counter_value("test/concurrent");
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : writers) t.join();

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test/concurrent"), kWriters * kPerWriter);
  const obs::HistogramSnapshot* hs = snap.histogram("hist/concurrent_ns");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kWriters * kPerWriter);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hs->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hs->count);
}

// ------------------------------------------------------------------- trace --

TEST(ObsTrace, ChromeTraceIsWellFormedJson) {
  obs::TraceRecorder rec(2, 4096);
  rec.set_lane_name(0, "worker 0");
  rec.set_lane_name(1, "merge strand");
  const auto t0 = obs::TraceRecorder::Clock::now();
  const auto t1 = t0 + std::chrono::microseconds(50);
  rec.record(0, "execute", "pipeline", t0, t1, 7);
  rec.record(1, "merge", "pipeline", t1, t1 + std::chrono::microseconds(3),
             7);
  rec.record(1, "vcd_drain", "pipeline", t0, t1);  // untagged
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  // The project's strict JSON parser doubles as the validator.
  const util::Json doc = util::parse_json(out.str());
  ASSERT_EQ(doc.kind, util::Json::Kind::kObject);
  const util::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // process_name + 2 thread-name metadata records + 3 spans.
  ASSERT_EQ(events->items.size(), 6u);
  std::size_t spans = 0;
  std::size_t tagged = 0;
  for (const util::Json& e : events->items) {
    const util::Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->text == "X") {
      ++spans;
      EXPECT_NE(e.find("name"), nullptr);
      EXPECT_NE(e.find("cat"), nullptr);
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_NE(e.find("dur"), nullptr);
      // Every span names its lane; tagged spans carry their iteration.
      const util::Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const util::Json* worker = args->find("worker");
      const util::Json* tid = e.find("tid");
      ASSERT_NE(worker, nullptr);
      ASSERT_NE(tid, nullptr);
      EXPECT_EQ(worker->number, tid->number);
      if (const util::Json* iteration = args->find("iteration")) {
        ++tagged;
        EXPECT_EQ(iteration->number, 7.0);
      }
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(tagged, 2u);  // the vcd_drain span is untagged
}

TEST(ObsTrace, RingOverwritesOldestAndReportsDrops) {
  // Tiny capacity: the per-lane floor is 1024, so one lane = 1024 slots.
  obs::TraceRecorder rec(1, 8);
  const auto t0 = obs::TraceRecorder::Clock::now();
  for (int i = 0; i < 1500; ++i) {
    rec.record(0, "span", "pipeline", t0, t0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.size(), 1024u);
  EXPECT_EQ(rec.dropped(), 1500u - 1024u);
  std::ostringstream out;
  rec.write_chrome_trace(out);
  const util::Json doc = util::parse_json(out.str());
  ASSERT_EQ(doc.kind, util::Json::Kind::kObject);
}

// -------------------------------------------------------------- prometheus --

TEST(ObsPrometheus, RendersFamiliesGroupedWithLabels) {
  obs::Registry reg(2);
  reg.counter("stage/merge_ns").add(0, 1500000000ull);  // 1.5 s
  reg.counter("campaign/iterations").add(1, 42);
  reg.gauge("campaign/covered_pdlc").set(17);
  reg.histogram("hist/queue_wait_ns").record(0, 1000);

  std::string out;
  obs::render_prometheus(reg.snapshot(), "id=\"c0001\"", out);
  EXPECT_NE(out.find("# TYPE specure_stage_merge_seconds_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("specure_stage_merge_seconds_total{id=\"c0001\"} 1.5"),
            std::string::npos);
  EXPECT_NE(out.find("specure_campaign_iterations_total{id=\"c0001\"} 42"),
            std::string::npos);
  EXPECT_NE(out.find("specure_campaign_covered_pdlc{id=\"c0001\"} 17"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE specure_queue_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(out.find("specure_queue_wait_seconds_bucket{id=\"c0001\","
                     "le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("specure_queue_wait_seconds_count{id=\"c0001\"} 1"),
            std::string::npos);

  // Two snapshots under different labels share one # TYPE line per
  // family (the multi-tenant daemon exposition), ad-hoc samples included.
  obs::PrometheusRenderer renderer;
  renderer.add(reg.snapshot(), "id=\"a\"");
  renderer.add_sample("tenant/iters_per_sec", "gauge", 12.5, "id=\"a\"");
  renderer.add(reg.snapshot(), "id=\"b\"");
  renderer.add_sample("tenant/iters_per_sec", "gauge", 0.25, "id=\"b\"");
  const std::string merged = renderer.render();
  std::size_t type_lines = 0;
  for (std::size_t at = merged.find("# TYPE specure_campaign_iterations");
       at != std::string::npos;
       at = merged.find("# TYPE specure_campaign_iterations", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(merged.find("specure_campaign_iterations_total{id=\"a\"} 42"),
            std::string::npos);
  EXPECT_NE(merged.find("specure_campaign_iterations_total{id=\"b\"} 42"),
            std::string::npos);

  // The whole page, byte for byte: families in first-seen order, each
  // family's samples in add order, doubles as "%.9g" prints them.
  EXPECT_EQ(merged,
            "# TYPE specure_stage_merge_seconds_total counter\n"
            "specure_stage_merge_seconds_total{id=\"a\"} 1.5\n"
            "specure_stage_merge_seconds_total{id=\"b\"} 1.5\n"
            "# TYPE specure_campaign_iterations_total counter\n"
            "specure_campaign_iterations_total{id=\"a\"} 42\n"
            "specure_campaign_iterations_total{id=\"b\"} 42\n"
            "# TYPE specure_campaign_covered_pdlc gauge\n"
            "specure_campaign_covered_pdlc{id=\"a\"} 17\n"
            "specure_campaign_covered_pdlc{id=\"b\"} 17\n"
            "# TYPE specure_queue_wait_seconds histogram\n"
            "specure_queue_wait_seconds_bucket{id=\"a\",le=\"1.023e-06\"} 1\n"
            "specure_queue_wait_seconds_bucket{id=\"a\",le=\"+Inf\"} 1\n"
            "specure_queue_wait_seconds_sum{id=\"a\"} 1e-06\n"
            "specure_queue_wait_seconds_count{id=\"a\"} 1\n"
            "specure_queue_wait_seconds_bucket{id=\"b\",le=\"1.023e-06\"} 1\n"
            "specure_queue_wait_seconds_bucket{id=\"b\",le=\"+Inf\"} 1\n"
            "specure_queue_wait_seconds_sum{id=\"b\"} 1e-06\n"
            "specure_queue_wait_seconds_count{id=\"b\"} 1\n"
            "# TYPE specure_tenant_iters_per_sec gauge\n"
            "specure_tenant_iters_per_sec{id=\"a\"} 12.5\n"
            "specure_tenant_iters_per_sec{id=\"b\"} 0.25\n");
}

// ---------------------------------------------------- result neutrality ----

core::CampaignResult run_with(std::size_t jobs, bool metrics,
                              const std::string& trace_out) {
  core::CampaignSpec spec;
  spec.rng_seed = 5;
  spec.jobs = jobs;
  spec.budget.iterations = 60;
  spec.metrics = metrics;
  spec.trace_out = trace_out;
  core::Session session(spec);
  return session.run();
}

TEST(ObsNeutrality, ResultsIdenticalWithMetricsAndTracingOnOrOff) {
  const std::string trace_path = "obs_test_trace.json";
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const core::CampaignResult off = run_with(jobs, false, "");
    const core::CampaignResult on = run_with(jobs, true, "");
    const core::CampaignResult traced = run_with(jobs, true, trace_path);
    expect_identical(off, on);
    expect_identical(off, traced);

    // The traced run left a loadable Chrome trace behind with the
    // core span taxonomy in it.
    std::ifstream in(trace_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const util::Json doc = util::parse_json(buf.str());
    ASSERT_EQ(doc.kind, util::Json::Kind::kObject);
    const util::Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_generate = false, saw_execute = false, saw_merge = false;
    for (const util::Json& e : events->items) {
      const util::Json* name = e.find("name");
      if (name == nullptr) continue;
      if (name->text == "generate") saw_generate = true;
      if (name->text == "execute") saw_execute = true;
      if (name->text == "merge") saw_merge = true;
    }
    EXPECT_TRUE(saw_generate);
    EXPECT_TRUE(saw_execute);
    EXPECT_TRUE(saw_merge);
  }
  std::remove(trace_path.c_str());
}

TEST(ObsNeutrality, MetricsSnapshotMatchesCampaign) {
  core::CampaignSpec spec;
  spec.rng_seed = 3;
  spec.jobs = 2;
  spec.budget.iterations = 40;
  core::Session session(spec);
  const core::CampaignResult result = session.run();

  const obs::Snapshot snap = session.metrics_snapshot();
  EXPECT_EQ(snap.counter_value("campaign/iterations"),
            result.history.size());
  const obs::CounterSnapshot* jobs_done = snap.counter("worker/jobs");
  ASSERT_NE(jobs_done, nullptr);
  EXPECT_EQ(jobs_done->total, result.history.size());
  const obs::HistogramSnapshot* exec = snap.histogram("hist/execute_ns");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count, result.history.size());
  EXPECT_GT(exec->percentile(50), 0.0);

  // PipelineStats is a view over the same registry: the two surfaces
  // must agree on per-worker job counts.
  const core::PipelineStats& stats = session.pipeline_stats();
  std::uint64_t stats_jobs = 0;
  for (const core::PipelineWorkerStats& ws : stats.workers) {
    stats_jobs += ws.jobs;
  }
  EXPECT_EQ(stats_jobs, jobs_done->total);
}

TEST(ObsNeutrality, RunLengthCountersMatchHistory) {
  // The ceiling-only run (no quiescence rule) reaches the cycle cap
  // within this budget.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CampaignSpec spec;
    spec.rng_seed = 7;
    spec.jobs = jobs;
    spec.budget.iterations = 120;
    spec.core.quiet_cycles = 0;
    core::Session session(spec);
    const core::CampaignResult result = session.run();

    std::uint64_t capped = 0;
    for (const core::IterationRecord& rec : result.history) {
      capped += rec.cycles >= spec.core.max_cycles;
    }
    EXPECT_GT(capped, 0u);  // the budget reaches the cycle cap
    const obs::Snapshot snap = session.metrics_snapshot();
    EXPECT_EQ(snap.counter_value("sim/capped_runs"), capped);
    const obs::HistogramSnapshot* cycles = snap.histogram("hist/run_cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->count, result.history.size());
    EXPECT_EQ(snap.counter_value("sim/quiescent_runs"), 0u);
  }
}

TEST(ObsNeutrality, QuiescentRunsAndWindowsAreCounted) {
  std::uint64_t quiescent_at_jobs1 = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CampaignSpec spec;
    spec.rng_seed = 7;
    spec.jobs = jobs;
    spec.budget.iterations = 120;
    core::Session session(spec);
    const core::CampaignResult result = session.run();

    const obs::Snapshot snap = session.metrics_snapshot();
    const std::uint64_t quiescent = snap.counter_value("sim/quiescent_runs");
    EXPECT_GT(quiescent, 0u);
    if (jobs == 1) quiescent_at_jobs1 = quiescent;
    EXPECT_EQ(quiescent, quiescent_at_jobs1);
    EXPECT_EQ(snap.counter_value("mst/windows"), result.total_windows);
  }
}

TEST(ObsNeutrality, DirtyIdsCounterSumsTheRuns) {
  // One worker job adds its run's walked-id total: the counter equals the
  // sum over the same programs simulated on their own.
  const sim::CoreConfig cfg;
  const core::OfflineResult offline = core::run_offline_phase(cfg);
  core::CampaignWorker worker(cfg, offline, core::LpPolicy::kAllSignals,
                              core::DetectorOptions{});
  obs::Registry registry(1);
  worker.set_observability({&registry, nullptr, 0, false});
  const sim::Simulator sim(cfg);
  util::Rng rng(5);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    fuzz::FuzzJob job;
    job.iteration = i;
    job.program = riscv::random_program(rng, 24 + 8 * i);
    expected += sim.run(job.program).dirty_ids;
    (void)worker.process(job);
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(registry.snapshot().counter_value("sim/dirty_ids"), expected);

  // A campaign's total is the same whichever executor ran it.
  std::uint64_t at_jobs1 = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CampaignSpec spec;
    spec.rng_seed = 7;
    spec.jobs = jobs;
    spec.budget.iterations = 120;
    core::Session session(spec);
    (void)session.run();
    const std::uint64_t walked =
        session.metrics_snapshot().counter_value("sim/dirty_ids");
    EXPECT_GT(walked, 0u);
    if (jobs == 1) at_jobs1 = walked;
    EXPECT_EQ(walked, at_jobs1);
  }
}

TEST(ObsNeutrality, InterruptedRunStillMaterializesStats) {
  core::CampaignSpec spec;
  spec.rng_seed = 9;
  spec.jobs = 2;
  spec.budget.iterations = 200;
  core::Session session(spec);
  session.request_pause_at(25);
  const core::CampaignResult partial = session.run();
  ASSERT_TRUE(session.paused());
  ASSERT_GE(partial.history.size(), 25u);

  // The --stats surface of an interrupted run is populated, not the
  // zeroed struct of a run that never finished.
  const core::PipelineStats& stats = session.pipeline_stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  std::uint64_t jobs_done = 0;
  double execute_seconds = 0;
  for (const core::PipelineWorkerStats& ws : stats.workers) {
    jobs_done += ws.jobs;
    execute_seconds += ws.execute_seconds;
  }
  EXPECT_GE(jobs_done, partial.history.size());
  EXPECT_GT(execute_seconds, 0.0);
  // And the percentile footer has data to print.
  const obs::Snapshot snap = session.metrics_snapshot();
  const obs::HistogramSnapshot* exec = snap.histogram("hist/execute_ns");
  ASSERT_NE(exec, nullptr);
  EXPECT_GT(exec->count, 0u);

  // finalize_interrupted (the CLI's SIGINT tail) is safe to call and
  // leaves the stats in place; the resumed segment then completes the
  // campaign to the exact uninterrupted result.
  session.finalize_interrupted();
  const core::CampaignResult rest = session.run();
  const core::CampaignResult reference = run_with(2, true, "");
  (void)rest;
  EXPECT_EQ(rest.history.size(), 200u);
  (void)reference;
}

}  // namespace
}  // namespace specure
