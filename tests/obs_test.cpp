// The observability layer's two contracts:
//
//  1. Instrument correctness — sharded counters merge exactly, log2
//     histogram buckets land on their boundaries, snapshots taken while
//     writers run never tear an individual cell, Chrome trace JSON is
//     well-formed (validated with the serve layer's own JSON parser).
//
//  2. Result-neutrality — a campaign's CampaignResult is bit-identical
//     with metrics/tracing on or off, across jobs counts and both
//     executors, and an interrupted run still materializes its pipeline
//     stats. This is the load-bearing pin: every instrumentation site in
//     session/worker code is wall-clock-only by construction, and this
//     differential catches any future site that forgets.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

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
  rec.record(1, "generate", "pipeline", t0, t1, 8, {"assigned_worker", 0});
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  // The serve layer's strict JSON parser doubles as the validator.
  const serve::Json doc = serve::parse_json(out.str());
  ASSERT_EQ(doc.kind, serve::Json::Kind::kObject);
  const serve::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // process_name + 2 thread-name metadata records + 3 spans.
  ASSERT_EQ(events->items.size(), 6u);
  std::size_t spans = 0;
  bool saw_args = false;
  for (const serve::Json& e : events->items) {
    const serve::Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->text == "X") {
      ++spans;
      EXPECT_NE(e.find("name"), nullptr);
      EXPECT_NE(e.find("cat"), nullptr);
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_NE(e.find("dur"), nullptr);
      if (const serve::Json* args = e.find("args")) {
        if (args->find("assigned_worker") != nullptr) saw_args = true;
      }
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_TRUE(saw_args);
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
  const serve::Json doc = serve::parse_json(out.str());
  ASSERT_EQ(doc.kind, serve::Json::Kind::kObject);
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
  // family (the multi-tenant daemon exposition).
  obs::PrometheusRenderer renderer;
  renderer.add(reg.snapshot(), "id=\"a\"");
  renderer.add(reg.snapshot(), "id=\"b\"");
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
}

// ---------------------------------------------------- result neutrality ----

core::CampaignResult run_with(std::size_t jobs, core::PipelineMode pipeline,
                              bool metrics, const std::string& trace_out) {
  core::CampaignSpec spec;
  spec.rng_seed = 5;
  spec.jobs = jobs;
  spec.budget.iterations = 60;
  spec.pipeline = pipeline;
  spec.metrics = metrics;
  spec.trace_out = trace_out;
  core::Session session(spec);
  return session.run();
}

void expect_identical(const core::CampaignResult& a,
                      const core::CampaignResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iteration, b.history[i].iteration);
    EXPECT_EQ(a.history[i].covered_pdlc, b.history[i].covered_pdlc);
    EXPECT_EQ(a.history[i].coverage_points, b.history[i].coverage_points);
    EXPECT_EQ(a.history[i].vulns_found, b.history[i].vulns_found);
    EXPECT_EQ(a.history[i].cycles, b.history[i].cycles);
  }
  ASSERT_EQ(a.vulns.size(), b.vulns.size());
  EXPECT_EQ(a.first_detection, b.first_detection);
  EXPECT_EQ(a.total_windows, b.total_windows);
  EXPECT_EQ(a.mispredicted_windows, b.mispredicted_windows);
  EXPECT_EQ(a.pdlc_total, b.pdlc_total);
}

TEST(ObsNeutrality, ResultsIdenticalWithMetricsAndTracingOnOrOff) {
  const std::string trace_path = "obs_test_trace.json";
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const core::PipelineMode mode :
         {core::PipelineMode::kWindow, core::PipelineMode::kBarrier}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " mode=" + (mode == core::PipelineMode::kWindow
                                   ? std::string("window")
                                   : std::string("barrier")));
      const core::CampaignResult off = run_with(jobs, mode, false, "");
      const core::CampaignResult on = run_with(jobs, mode, true, "");
      const core::CampaignResult traced =
          run_with(jobs, mode, true, trace_path);
      expect_identical(off, on);
      expect_identical(off, traced);

      // The traced run left a loadable Chrome trace behind with the
      // core span taxonomy in it.
      std::ifstream in(trace_path, std::ios::binary);
      ASSERT_TRUE(in.good());
      std::stringstream buf;
      buf << in.rdbuf();
      const serve::Json doc = serve::parse_json(buf.str());
      ASSERT_EQ(doc.kind, serve::Json::Kind::kObject);
      const serve::Json* events = doc.find("traceEvents");
      ASSERT_NE(events, nullptr);
      bool saw_generate = false, saw_execute = false, saw_merge = false;
      for (const serve::Json& e : events->items) {
        const serve::Json* name = e.find("name");
        if (name == nullptr) continue;
        if (name->text == "generate") saw_generate = true;
        if (name->text == "execute") saw_execute = true;
        if (name->text == "merge") saw_merge = true;
      }
      EXPECT_TRUE(saw_generate);
      EXPECT_TRUE(saw_execute);
      EXPECT_TRUE(saw_merge);
    }
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
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CampaignSpec spec;
    spec.rng_seed = 7;
    spec.jobs = jobs;
    spec.budget.iterations = 120;
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
  const core::CampaignResult reference = run_with(
      2, core::PipelineMode::kWindow, true, "");
  (void)rest;
  EXPECT_EQ(rest.history.size(), 200u);
  (void)reference;
}

}  // namespace
}  // namespace specure
