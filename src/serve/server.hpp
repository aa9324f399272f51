// The `specure serve` daemon: campaign-as-a-service over a Unix-domain
// socket.
//
//   Client                      Server
//   ------                      ------
//   submit {spec}        -->    store.create -> Tenant -> scheduled
//   status {id}          -->    lifecycle + live counters
//   events {id,from}     -->    events.jsonl streamed as frames (tail -f)
//   pause/resume/cancel  -->    tenant lifecycle transitions
//   list / shutdown      -->    inventory / graceful stop
//   metrics {id?}        -->    Prometheus text exposition (one or all)
//
// Execution model: every tenant campaign runs as a single-worker
// core::Session (jobs is result-neutral, so results stay bit-identical
// to any solo run). A runner thread repeatedly gathers the runnable
// tenants and executes one *slice* per tenant per round over one shared
// util::ThreadPool — per-tenant fair scheduling with a deterministic
// quantum. A slice is `request_pause_at(merged + slice) + run()`: the
// session pauses at the slice boundary, its frontier sink persists
// state.bin, and the next round continues from live in-memory state
// (the durable file is only read back at recovery).
//
// Durability: every tenant's resume frontier is written atomically to
// <store>/<id>/state.bin at each slice boundary (plus any configured
// cadence). Observer events append to events.jsonl *before* the state
// write, so at recovery the event log is truncated to iteration <=
// state.merged — the exact deterministic prefix — and the resumed
// campaign re-emits everything after it. A daemon killed with SIGKILL
// mid-campaign therefore restarts into a state where every tenant
// resumes and finishes with results bit-identical to an uninterrupted
// run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "serve/campaign_store.hpp"
#include "util/thread_pool.hpp"

namespace specure::serve {

struct ServerOptions {
  std::string socket_path;   ///< Unix-domain socket to listen on
  std::string store_root;    ///< campaign store directory
  std::size_t workers = 0;   ///< shared pool contexts (0 = hardware threads)
  /// Fair-scheduling quantum: iterations each runnable tenant merges per
  /// round. Purely a scheduling knob — never affects results.
  std::uint64_t slice_iterations = 32;
  /// Extra state-write cadence in seconds within a slice (0 = only at
  /// slice boundaries, which always persist).
  double state_interval = 0;
};

class Server {
 public:
  /// Opens (or creates) the store, recovers every non-terminal campaign
  /// found in it, and binds the socket. Throws StateError/ProtocolError
  /// on an unusable store or socket path.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until shutdown(): starts the runner thread and accepts
  /// connections (one handler thread per connection; each accept joins
  /// the handlers that have finished).
  void run();

  /// Graceful stop, callable from any thread (and from run() itself via
  /// the shutdown verb): running campaigns pause at their next merge
  /// boundary and persist state, the accept loop ends, every connection
  /// is closed. Campaigns resume when the next daemon opens the store.
  void shutdown();

  const CampaignStore& store() const { return store_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Tenant {
    std::string id;
    core::CampaignSpec spec;  ///< as persisted (jobs forced to 1)
    std::unique_ptr<core::Session> session;
    std::string status;       ///< queued|running|paused|done|failed|cancelled
    std::string detail;       ///< failure message for status "failed"
    std::atomic<std::uint64_t> merged{0};
    std::atomic<std::uint64_t> vulns{0};
    std::ofstream events;     ///< append stream (merge-strand only)

    // Live-rate telemetry, updated by the frontier sink (merge strand)
    // and read by the status/metrics verbs. rate_merged / rate_stamp are
    // sink-private scratch (single writer, never read elsewhere); the
    // published rate is the atomic, in milli-iterations/second so it
    // stays a plain integer.
    std::atomic<std::uint64_t> rate_milli{0};
    /// Merged iteration of the last durable state write — the "events
    /// ahead of durable state" lag gauge is merged - last_state_merged.
    std::atomic<std::uint64_t> last_state_merged{0};
    std::uint64_t rate_merged = 0;
    std::chrono::steady_clock::time_point rate_stamp{};
  };

  /// One connection handler thread. `finished` is set as the handler
  /// returns, so the accept loop can join it without blocking.
  struct Connection {
    std::atomic<bool> finished{false};
    std::thread thread;
  };

  void recover();
  Tenant& create_tenant(const std::string& id, core::CampaignSpec spec);
  void attach_session(Tenant& tenant);
  void run_slice(Tenant& tenant);
  void finish_tenant(Tenant& tenant, const core::CampaignResult& result);
  void fail_tenant(Tenant& tenant, const std::string& why);
  void runner_main();
  void handle_connection(int fd);
  /// Join and drop the handlers that have finished (accept thread only).
  void reap_connections();
  std::string handle_request(const std::string& frame, int fd, bool& streamed);
  void stream_events(int fd, const std::string& id, std::uint64_t from,
                     bool follow);
  void set_status(Tenant& tenant, const std::string& status);
  /// Prometheus text exposition: daemon-wide families plus every
  /// tenant's session registry under an `id` label (`id` empty), or one
  /// tenant's families only (`id` given, assumed to exist).
  std::string render_metrics(const std::string& id);

  ServerOptions options_;
  CampaignStore store_;
  util::ThreadPool pool_;
  int listen_fd_ = -1;

  /// Daemon-wide instruments (single shard: slice completion and state
  /// writes are serialized per tenant and cheap enough to share a lane).
  obs::Registry daemon_metrics_{1};
  obs::Counter slices_;            ///< "daemon/slices"
  obs::Counter state_writes_;      ///< "daemon/state_writes"
  obs::Histogram state_write_ns_;  ///< "hist/daemon/state_write_ns"

  std::mutex mu_;  ///< guards tenants_ map topology + status strings
  std::condition_variable runnable_cv_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  std::atomic<bool> shutdown_{false};
  std::thread runner_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::mutex conn_mu_;
  std::vector<int> open_fds_;  ///< live connection fds (closed on shutdown)
};

}  // namespace specure::serve
