// Campaign-as-a-service overheads: what the daemon layer costs on top of
// a bare Session.
//
//   submit-to-first-event   wall-clock from the submit frame leaving the
//                           client to the first observer event arriving
//                           on an events stream (daemon pickup + Session
//                           construction + first merge).
//   events streamed         frames/sec a client drains from a finished
//                           campaign's event log over the socket.
//   daemon throughput       merged iterations per wall second of two
//                           tenants in specbench's daemon-mixed shape
//                           (default/7 + full/9, 1500 iterations each,
//                           2 workers, slice 32), and the p50 of the
//                           frontier hand-off each slice pays.
//   per-slice state cost    at a full/9 frontier of 3000 and 12000
//                           iterations: the copy a tenant's thread pays
//                           to hand the frontier off, and the encode +
//                           replace of state.bin the writer thread pays.
//   state-write overhead    campaign wall-clock with the durable-state
//                           sink off vs cadence 5s / 1s / every-boundary
//                           (a synchronous sink on the merge strand, as
//                           `specure run --state-out` arms it).
//
// The durability contract itself (resume bit-identity) is tested in
// tests/serve_test.cpp; this bench only prices it.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign_spec.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "serve/campaign_state.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace {

using namespace specure;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::CampaignSpec bench_spec(std::uint64_t iterations,
                              std::uint64_t progress_interval) {
  core::CampaignSpec spec;  // default preset
  spec.rng_seed = 7;
  spec.batch_size = 8;
  spec.jobs = 1;
  spec.budget.iterations = iterations;
  spec.progress_interval = progress_interval;
  return spec;
}

/// Campaign wall-clock with a state sink at `interval` (negative = no
/// sink at all).
double timed_campaign(const std::string& state_path, double interval) {
  core::CampaignSpec spec = bench_spec(600, 0);
  spec.jobs = 4;
  core::Session session(spec);
  if (interval >= 0) {
    session.on_frontier(
        [&](const core::CampaignFrontier& f) {
          serve::save_state_file(state_path, spec, f);
        },
        interval);
  }
  const Clock::time_point start = Clock::now();
  session.run();
  return seconds_since(start);
}

/// A campaign in specbench's shape (its campaign() helper).
core::CampaignSpec mixed_spec(const char* preset, std::uint64_t seed,
                              std::uint64_t iterations) {
  core::CampaignSpec spec = core::CampaignSpec::preset(preset);
  spec.rng_seed = seed;
  spec.jobs = 1;
  spec.batch_size = 32;
  spec.budget.iterations = iterations;
  return spec;
}

/// One daemon-mixed run on a fresh store: both tenants submitted, status
/// polled until neither runs. Returns merged iterations per wall second
/// from the first submit; `handoff_ms_p50` gets the daemon's hand-off p50.
double daemon_mixed_run(const std::string& root, double& handoff_ms_p50) {
  std::filesystem::remove_all(root);
  serve::ServerOptions options;
  options.socket_path = root + ".sock";
  options.store_root = root;
  options.workers = 2;
  options.slice_iterations = 32;
  serve::Server server(options);
  std::thread serving([&server] { server.run(); });
  const core::CampaignSpec tenants[] = {mixed_spec("default", 7, 1500),
                                        mixed_spec("full", 9, 1500)};
  const Clock::time_point start = Clock::now();
  {
    serve::Client client(options.socket_path);
    std::vector<std::string> ids;
    for (const core::CampaignSpec& spec : tenants) {
      const util::Json reply =
          client.request("{\"verb\": \"submit\", \"spec\": \"" +
                         util::escape_json(spec.to_toml()) + "\"}");
      ids.push_back(reply.find("id")->text);
    }
    for (const std::string& id : ids) {
      for (;;) {
        const util::Json reply =
            client.request("{\"verb\": \"status\", \"id\": \"" + id + "\"}");
        if (reply.find("status")->text != "running") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  const double seconds = seconds_since(start);
  const obs::Snapshot daemon = server.metrics_snapshot();
  const obs::HistogramSnapshot* handoff =
      daemon.histogram("hist/daemon/handoff_ns");
  handoff_ms_p50 = handoff != nullptr ? handoff->percentile(50) / 1e6 : 0;
  server.shutdown();
  serving.join();
  return 3000.0 / seconds;
}

struct FrontierCost {
  std::uint64_t merged = 0;
  double handoff_ms = 0;      ///< copy into a pending slot (tenant thread)
  double state_write_ms = 0;  ///< encode + replace state.bin (writer)
};

/// The median of `reps` hand-off copies and state writes of `f`.
FrontierCost price_frontier(const core::CampaignSpec& spec,
                            const core::CampaignFrontier& f,
                            const std::string& state_path, int reps) {
  std::vector<double> copies;
  std::vector<double> writes;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    auto copy = std::make_unique<core::CampaignFrontier>(f);
    copies.push_back(seconds_since(t0) * 1e3);
    copy.reset();
    t0 = Clock::now();
    serve::save_state_file(state_path, spec, f);
    writes.push_back(seconds_since(t0) * 1e3);
  }
  return {f.merged, bench::median(copies), bench::median(writes)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json(argc, argv, "serve");

  const std::string root =
      (std::filesystem::temp_directory_path() / "specure_bench_serve")
          .string();
  std::filesystem::remove_all(root);

  bench::header("serve daemon: submit-to-first-event, event streaming");
  serve::ServerOptions options;
  options.socket_path = root + ".sock";
  options.store_root = root;
  options.workers = 2;
  options.slice_iterations = 32;
  serve::Server server(options);
  std::thread serving([&server] { server.run(); });

  // Submit-to-first-event: open the event stream the moment the id comes
  // back, then wait for the first frame.
  const core::CampaignSpec spec = bench_spec(2000, 1);
  const Clock::time_point submit_start = Clock::now();
  std::string id;
  {
    serve::Client client(options.socket_path);
    const util::Json reply =
        client.request("{\"verb\": \"submit\", \"spec\": \"" +
                       util::escape_json(spec.to_toml()) + "\"}");
    id = reply.find("id")->text;
  }
  double first_event_seconds = 0;
  {
    serve::Client client(options.socket_path);
    client.send("{\"verb\": \"events\", \"id\": \"" + id +
                "\", \"follow\": true}");
    std::string frame;
    if (client.next_raw(frame)) first_event_seconds = seconds_since(submit_start);
  }
  std::printf("  submit -> first event:  %7.1f ms\n",
              first_event_seconds * 1e3);
  json.metric("submit_to_first_event_ms", first_event_seconds * 1e3);

  // Let the campaign finish, then drain the whole log cold.
  for (;;) {
    serve::Client client(options.socket_path);
    const util::Json reply =
        client.request("{\"verb\": \"status\", \"id\": \"" + id + "\"}");
    if (reply.find("status")->text != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::size_t frames = 0;
  double stream_seconds = 0;
  {
    serve::Client client(options.socket_path);
    const Clock::time_point start = Clock::now();
    client.send("{\"verb\": \"events\", \"id\": \"" + id +
                "\", \"follow\": false}");
    std::string frame;
    while (client.next_raw(frame)) {
      ++frames;
      const util::Json parsed = util::parse_json(frame);
      const util::Json* event = parsed.find("event");
      if (event != nullptr && event->text == "end") break;
    }
    stream_seconds = seconds_since(start);
  }
  const double events_per_sec =
      stream_seconds > 0 ? static_cast<double>(frames) / stream_seconds : 0;
  std::printf("  events streamed:        %zu frames in %.3fs (%.0f/sec)\n",
              frames, stream_seconds, events_per_sec);
  json.metric("events_streamed", static_cast<double>(frames));
  json.metric("events_per_sec", events_per_sec);

  server.shutdown();
  serving.join();

  bench::header("serve daemon: daemon-mixed shape (2 workers, slice 32)");
  {
    std::vector<double> rates;
    std::vector<double> handoffs;
    for (int rep = 0; rep < 3; ++rep) {
      double handoff_ms = 0;
      rates.push_back(daemon_mixed_run(root + "-mixed", handoff_ms));
      handoffs.push_back(handoff_ms);
    }
    std::filesystem::remove_all(root + "-mixed");
    std::printf("  default/7 + full/9:     %7.0f it/s  (hand-off p50 %.3f ms, "
                "median of 3)\n",
                bench::median(rates), bench::median(handoffs));
    json.metric("daemon_mixed_iters_per_sec", bench::median(rates));
    json.metric("daemon_mixed_handoff_ms_p50", bench::median(handoffs));
  }

  bench::header("per-slice state cost: full/9 frontier, median of 5");
  {
    core::CampaignSpec spec = mixed_spec("full", 9, 12000);
    spec.jobs = 4;  // result-neutral; only shortens the campaign
    const std::string path = root + ".frontier.bin";
    std::vector<FrontierCost> costs;
    core::Session session(spec);
    session.on_frontier(
        [&](const core::CampaignFrontier& f) {
          costs.push_back(price_frontier(spec, f, path, 5));
        },
        core::kFinalFrontierOnly);
    session.request_pause_at(3000);
    session.run();  // pauses at 3000: the first priced frontier
    session.run();  // completes at 12000
    std::filesystem::remove(path);
    for (const FrontierCost& c : costs) {
      std::printf("  %5llu iterations:  tenant thread (copy) %8.3f ms   "
                  "writer (encode + replace) %8.3f ms\n",
                  static_cast<unsigned long long>(c.merged), c.handoff_ms,
                  c.state_write_ms);
      const std::string at = std::to_string(c.merged);
      json.metric("slice_handoff_ms_full_" + at, c.handoff_ms);
      json.metric("slice_state_write_ms_full_" + at, c.state_write_ms);
    }
    bench::note("before the state writer, a tenant's thread paid the "
                "encode + replace (and a metrics.prom stamp) every slice");
  }

  bench::header("durable state: write overhead vs state_interval");
  const std::string state_path = root + ".state.bin";
  timed_campaign(state_path, -1);  // warm-up (page cache, allocator) untimed
  struct Row {
    const char* label;
    double interval;  ///< negative = sink disabled
    const char* key;
  };
  const Row rows[] = {
      {"off", -1, "campaign_seconds_state_off"},
      {"5s", 5, "campaign_seconds_state_5s"},
      {"1s", 1, "campaign_seconds_state_1s"},
      {"boundary", 0, "campaign_seconds_state_every_boundary"},
  };
  double baseline = 0;
  for (const Row& row : rows) {
    const double seconds = timed_campaign(state_path, row.interval);
    if (row.interval < 0) baseline = seconds;
    const double overhead =
        baseline > 0 ? (seconds / baseline - 1.0) * 100.0 : 0;
    std::printf("  state_interval %-9s %6.3fs  (%+5.1f%%)\n", row.label,
                seconds, overhead);
    json.metric(row.key, seconds);
  }
  bench::note("every-boundary is the worst case of a synchronous sink; "
              "the serve daemon hands off once per slice");

  std::filesystem::remove_all(root);
  std::filesystem::remove(root + ".sock");
  std::filesystem::remove(state_path);
  return 0;
}
