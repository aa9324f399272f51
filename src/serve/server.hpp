// The `specure serve` daemon: campaign-as-a-service over a Unix-domain
// socket.
//
//   Client                      Server
//   ------                      ------
//   submit {spec}        -->    store.create -> Tenant -> run queue
//   status {id}          -->    lifecycle + live counters
//   events {id,from}     -->    events.jsonl streamed as frames (tail -f)
//   pause/resume/cancel  -->    tenant lifecycle transitions
//   list / shutdown      -->    inventory / graceful stop
//   metrics {id?}        -->    Prometheus text exposition (one or all)
//
// Execution model: every tenant campaign runs as a single-worker
// core::Session (jobs is result-neutral, so results stay bit-identical
// to any solo run). `workers` runner threads pop tenants from one run
// queue and execute one *slice* each — `request_pause_at(merged + slice)
// + run()` — then push the tenant back if it is still running. A tenant
// is queued or on a runner at most once, and no runner waits for
// another: the queue's FIFO order is the fair share.
//
// Durability: a slice's frontier sink only copies the frontier into the
// tenant's pending slot (a newer frontier replaces an unwritten one).
// One writer thread owns every file a slice replaces: it encodes and
// atomically replaces <store>/<id>/state.bin, and stamps metrics.prom at
// most once a second per tenant and always for a completed frontier.
// Observer events append to events.jsonl on the tenant's thread, before
// the frontier that covers them even reaches the writer, so at recovery
// the event log is truncated to iteration <= state.merged — the exact
// deterministic prefix — and the resumed campaign re-emits everything
// after it. A daemon killed with SIGKILL loses at most each tenant's one
// pending frontier, which that re-run covers: every tenant resumes and
// finishes with results bit-identical to an uninterrupted run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
#include "util/work_queue.hpp"

namespace specure::serve {

struct ServerOptions {
  std::string socket_path;   ///< Unix-domain socket to listen on
  std::string store_root;    ///< campaign store directory
  std::size_t workers = 0;   ///< runner threads (0 = hardware threads)
  /// Fair-scheduling quantum: iterations a tenant merges per turn on a
  /// runner. Purely a scheduling knob — never affects results.
  std::uint64_t slice_iterations = 32;
};

class Server {
 public:
  /// Opens (or creates) the store, recovers every non-terminal campaign
  /// found in it, binds the socket and starts the state writer. Throws
  /// StateError/ProtocolError on an unusable store or socket path.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until shutdown(): starts the runner threads and accepts
  /// connections (one handler thread per connection; each accept joins
  /// the handlers that have finished).
  void run();

  /// Graceful stop, callable from any thread (and from run() itself via
  /// the shutdown verb): running campaigns pause at their next merge
  /// boundary, the accept loop ends, every connection is closed. Returns
  /// once no slice is running and the writer has written each tenant's
  /// latest frontier. Campaigns resume when the next daemon opens the
  /// store.
  void shutdown();

  const CampaignStore& store() const { return store_; }
  const ServerOptions& options() const { return options_; }

  /// The daemon-wide instruments (slices, state writes, hand-offs), as
  /// the `metrics` verb exports them.
  obs::Snapshot metrics_snapshot() const { return daemon_metrics_.snapshot(); }

 private:
  struct Tenant {
    std::string id;
    core::CampaignSpec spec;  ///< as persisted (jobs forced to 1)
    std::unique_ptr<core::Session> session;  ///< set under mu_
    std::string status;       ///< queued|running|paused|done|failed|cancelled
    std::string detail;       ///< failure message for status "failed"
    /// In the run queue or on a runner (guarded by mu_): a tenant is
    /// scheduled at most once, whatever pause/resume verbs interleave.
    bool scheduled = false;
    std::atomic<std::uint64_t> merged{0};
    std::atomic<std::uint64_t> vulns{0};
    std::ofstream events;     ///< append stream (merge-strand only)

    // Live-rate telemetry, updated by the frontier sink (merge strand)
    // and read by the status/metrics verbs. rate_merged / rate_stamp are
    // sink-private scratch (single writer, never read elsewhere); the
    // published rate is the atomic, in milli-iterations/second so it
    // stays a plain integer.
    std::atomic<std::uint64_t> rate_milli{0};
    /// Merged iteration of the last state.bin write that landed — the
    /// "events ahead of durable state" lag gauge is
    /// merged - last_state_merged.
    std::atomic<std::uint64_t> last_state_merged{0};
    std::uint64_t rate_merged = 0;
    std::chrono::steady_clock::time_point rate_stamp{};

    /// Newest handed-off frontier the writer has not taken yet (guarded
    /// by write_mu_).
    std::unique_ptr<core::CampaignFrontier> pending;
    /// Writer-private: when metrics.prom was last stamped.
    std::chrono::steady_clock::time_point prom_stamp{};
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
  /// Queue a running tenant that is neither queued nor on a runner
  /// (caller holds mu_).
  void schedule(Tenant& tenant);
  void run_slice(Tenant& tenant);
  void finish_tenant(Tenant& tenant, const core::CampaignResult& result);
  void fail_tenant(Tenant& tenant, const std::string& why);
  void runner_main();

  /// The frontier sink's whole cost on the tenant's thread: copy `f`
  /// into the tenant's pending slot and wake the writer.
  void hand_off(Tenant& tenant, const core::CampaignFrontier& f);
  void writer_main();
  void write_frontier(Tenant& tenant, const core::CampaignFrontier& f);
  /// Block until the writer holds no frontier of `tenant` (nullptr: of
  /// any tenant).
  void wait_written(const Tenant* tenant);

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
  int listen_fd_ = -1;

  /// Daemon-wide instruments (one shard: every add is a relaxed
  /// fetch_add, and runners, writer and scrapes are few).
  obs::Registry daemon_metrics_{1};
  obs::Counter slices_;              ///< "daemon/slices"
  obs::Counter state_writes_;        ///< "daemon/state_writes"
  obs::Counter coalesced_;           ///< "daemon/frontiers_coalesced"
  obs::Histogram state_write_ns_;    ///< "hist/daemon/state_write_ns"
  obs::Histogram prom_write_ns_;     ///< "hist/daemon/prom_write_ns"
  obs::Histogram handoff_ns_;        ///< "hist/daemon/handoff_ns"

  std::atomic<bool> shutdown_{false};
  std::mutex mu_;  ///< guards tenants_ map topology, status, scheduled
  std::condition_variable idle_cv_;  ///< slices_running_ fell to 0
  std::size_t slices_running_ = 0;   ///< guarded by mu_
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  util::WorkQueue<Tenant*> run_queue_;

  std::mutex write_mu_;  ///< guards every Tenant::pending and what follows
  std::condition_variable write_cv_;    ///< work for the writer
  std::condition_variable written_cv_;  ///< a write finished
  std::deque<Tenant*> dirty_;           ///< tenants with a pending frontier
  const Tenant* writing_ = nullptr;     ///< the writer's current tenant
  bool writer_stop_ = false;

  std::vector<std::thread> runners_;
  std::thread writer_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::mutex conn_mu_;
  std::vector<int> open_fds_;  ///< live connection fds (closed on shutdown)
};

}  // namespace specure::serve
