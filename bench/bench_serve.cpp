// Campaign-as-a-service overheads: what the daemon layer costs on top of
// a bare Session, in three numbers.
//
//   submit-to-first-event   wall-clock from the submit frame leaving the
//                           client to the first observer event arriving
//                           on an events stream (daemon pickup + Session
//                           construction + first merge).
//   events streamed         frames/sec a client drains from a finished
//                           campaign's event log over the socket.
//   state-write overhead    campaign wall-clock with the durable-state
//                           sink off vs cadence 5s / 1s / every-boundary
//                           (the daemon's slice default is every slice
//                           boundary; every-boundary is the worst case).
//
// The durability contract itself (resume bit-identity) is tested in
// tests/serve_test.cpp; this bench only prices it.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "core/campaign_spec.hpp"
#include "core/session.hpp"
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
  bench::note("every-boundary is the worst case; the serve daemon writes "
              "once per slice");

  std::filesystem::remove_all(root);
  std::filesystem::remove(root + ".sock");
  std::filesystem::remove(state_path);
  return 0;
}
