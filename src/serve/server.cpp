#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "core/vuln_detect.hpp"
#include "obs/prometheus.hpp"
#include "serve/campaign_state.hpp"
#include "serve/protocol.hpp"
#include "util/strings.hpp"

namespace specure::serve {

namespace {

/// Event log lines are deterministic on purpose: no wall-clock fields, so
/// the log a resumed campaign appends to is byte-identical to the
/// uninterrupted daemon's (and diffable in CI). Iteration order is pinned
/// by the merge strand.
std::string coverage_event_line(const core::CoverageEvent& e) {
  return "{\"event\": \"new_coverage\", \"iteration\": " +
         std::to_string(e.iteration) +
         ", \"new_lp\": " + std::to_string(e.new_lp_channels) +
         ", \"new_points\": " + std::to_string(e.new_coverage_points) +
         ", \"covered_pdlc\": " + std::to_string(e.covered_pdlc) +
         ", \"coverage_points\": " + std::to_string(e.coverage_points) + "}";
}

std::string finding_event_line(const core::VulnEvent& e) {
  return "{\"event\": \"finding\", \"iteration\": " +
         std::to_string(e.iteration) + ", \"key\": \"" +
         escape_json(core::finding_key(e.report)) + "\", \"sink\": \"" +
         escape_json(e.report.sink_signal) + "\", \"cwe\": \"" +
         escape_json(e.report.cwe) + "\"}";
}

std::string progress_event_line(const core::ProgressEvent& e) {
  return "{\"event\": \"progress\", \"iteration\": " +
         std::to_string(e.iteration) +
         ", \"budget\": " + std::to_string(e.budget_iterations) +
         ", \"covered_pdlc\": " + std::to_string(e.covered_pdlc) +
         ", \"coverage_points\": " + std::to_string(e.coverage_points) +
         ", \"vulns\": " + std::to_string(e.vulns) + "}";
}

bool is_terminal(const std::string& status) {
  return status == "done" || status == "failed" || status == "cancelled";
}

std::string fmt_rate(std::uint64_t milli) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(milli) / 1e3);
  return buf;
}

/// All complete lines of a file (a trailing unterminated fragment — a
/// write torn by SIGKILL — is ignored; it can only be an event past the
/// last durable state write, which the resumed campaign re-emits).
std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  if (!in) return lines;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::size_t start = 0;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      lines.push_back(content.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      store_(options_.store_root),
      pool_(options_.workers != 0 ? options_.workers
                                  : std::thread::hardware_concurrency()) {
  // A client vanishing mid-stream must surface as a write error on that
  // connection, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  if (options_.slice_iterations == 0) options_.slice_iterations = 32;

  slices_ = daemon_metrics_.counter("daemon/slices");
  state_writes_ = daemon_metrics_.counter("daemon/state_writes");
  state_write_ns_ = daemon_metrics_.histogram("hist/daemon/state_write_ns");

  recover();

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ProtocolError(std::string("cannot create listen socket: ") +
                        std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ProtocolError("socket path too long: '" + options_.socket_path +
                        "'");
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A stale socket file from a killed daemon would make bind fail; the
  // store directory is the real exclusion mechanism, so replace it.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ProtocolError("cannot bind '" + options_.socket_path +
                        "': " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ProtocolError("cannot listen on '" + options_.socket_path +
                        "': " + std::strerror(errno));
  }
}

Server::~Server() {
  shutdown();
  if (runner_.joinable()) runner_.join();
  for (const auto& c : connections_) {
    if (c->thread.joinable()) c->thread.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
}

void Server::set_status(Tenant& tenant, const std::string& status) {
  tenant.status = status;
  std::string file = status;
  if (!tenant.detail.empty()) file += "\n" + tenant.detail;
  store_.write_status(tenant.id, file);
}

Server::Tenant& Server::create_tenant(const std::string& id,
                                      core::CampaignSpec spec) {
  auto tenant = std::make_unique<Tenant>();
  tenant->id = id;
  tenant->spec = std::move(spec);
  tenant->events.open(store_.events_path(id),
                      std::ios::app | std::ios::binary);
  Tenant& ref = *tenant;
  {
    std::lock_guard<std::mutex> lk(mu_);
    tenants_[id] = std::move(tenant);
  }
  return ref;
}

void Server::attach_session(Tenant& tenant) {
  tenant.session = std::make_unique<core::Session>(tenant.spec);
  core::Session& session = *tenant.session;
  Tenant* t = &tenant;

  // Observer events append to the log *before* any state write at the
  // same boundary (merge_one fires observers; frontier sinks fire in
  // post_merge, strictly after) — the recovery truncation contract.
  session.on_new_coverage([t](const core::CoverageEvent& e) {
    t->events << coverage_event_line(e) << "\n";
    t->events.flush();
  });
  session.on_vuln([t](const core::VulnEvent& e) {
    t->events << finding_event_line(e) << "\n";
    t->events.flush();
  });
  session.on_progress([t](const core::ProgressEvent& e) {
    t->events << progress_event_line(e) << "\n";
    t->events.flush();
  });

  // Durable state: every pause/completion boundary persists (pauses fire
  // all sinks); state_interval adds an intra-slice wall-clock cadence.
  const double interval =
      options_.state_interval > 0 ? options_.state_interval : 1e18;
  const std::string state_path = store_.state_path(tenant.id);
  const std::string metrics_path = store_.metrics_path(tenant.id);
  session.on_frontier(
      [this, t, state_path, metrics_path](const core::CampaignFrontier& f) {
        const auto w0 = std::chrono::steady_clock::now();
        save_state_file(state_path, t->spec, f);
        const auto w1 = std::chrono::steady_clock::now();
        state_writes_.add(0);
        state_write_ns_.record(
            0, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(w1 -
                                                                        w0)
                       .count()));

        // Live iteration rate over the window since the previous state
        // write (sink-private scratch; single writer — this strand).
        if (t->rate_stamp.time_since_epoch().count() != 0 &&
            f.merged > t->rate_merged) {
          const double dt =
              std::chrono::duration<double>(w0 - t->rate_stamp).count();
          if (dt > 0) {
            t->rate_milli.store(
                static_cast<std::uint64_t>(
                    static_cast<double>(f.merged - t->rate_merged) * 1e3 /
                    dt),
                std::memory_order_relaxed);
          }
        }
        t->rate_stamp = w0;
        t->rate_merged = f.merged;

        t->merged.store(f.merged, std::memory_order_relaxed);
        t->vulns.store(f.result.vulns.size(), std::memory_order_relaxed);
        t->last_state_merged.store(f.merged, std::memory_order_relaxed);

        // Stamp the tenant's latest registry snapshot next to its state
        // (atomic tmp+rename like status): scrapeable off disk even when
        // the daemon is gone.
        if (t->session != nullptr) {
          std::string prom;
          obs::render_prometheus(t->session->metrics_snapshot(),
                                 "id=\"" + escape_json(t->id) + "\"", prom);
          const std::string tmp = metrics_path + ".tmp";
          std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
          out << prom;
          out.close();
          std::rename(tmp.c_str(), metrics_path.c_str());
        }
      },
      interval);
}

void Server::recover() {
  for (const std::string& id : store_.ids()) {
    const std::string status = store_.read_status(id);
    if (is_terminal(status)) continue;  // finished before the restart
    try {
      core::CampaignSpec disk_spec =
          core::CampaignSpec::load(store_.spec_path(id));

      bool have_state = false;
      CampaignState state;
      {
        std::ifstream probe(store_.state_path(id), std::ios::binary);
        have_state = static_cast<bool>(probe);
      }
      if (have_state) {
        state = load_state_file(store_.state_path(id));
        // The daemon wrote both files, so this only ever adopts
        // wall-clock fields — but it still guards against a hand-edited
        // spec.toml silently changing the campaign.
        disk_spec = resume_spec(state, disk_spec);
      }

      // Truncate the event log to the durable prefix (iteration <=
      // state.merged): everything after the last state write is exactly
      // what the resumed campaign deterministically re-emits.
      const std::uint64_t merged = have_state ? state.frontier.merged : 0;
      std::vector<std::string> keep;
      for (const std::string& line : read_lines(store_.events_path(id))) {
        std::uint64_t iteration = 0;
        try {
          const Json parsed = parse_json(line);
          const Json* field = parsed.find("iteration");
          if (field == nullptr || field->kind != Json::Kind::kNumber) break;
          iteration = static_cast<std::uint64_t>(field->number);
        } catch (const ProtocolError&) {
          break;  // torn line: drop it and everything after
        }
        if (iteration > merged) break;
        keep.push_back(line);
      }
      {
        const std::string tmp = store_.events_path(id) + ".tmp";
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        for (const std::string& line : keep) out << line << "\n";
        out.close();
        std::rename(tmp.c_str(), store_.events_path(id).c_str());
      }

      Tenant& tenant = create_tenant(id, std::move(disk_spec));
      tenant.merged.store(merged, std::memory_order_relaxed);
      if (have_state) {
        tenant.vulns.store(state.frontier.result.vulns.size(),
                           std::memory_order_relaxed);
      }
      const bool completed = have_state && state.frontier.completed;
      attach_session(tenant);
      if (have_state) tenant.session->resume_from(std::move(state.frontier));
      if (completed) {
        // Crashed after the final state write but (possibly) before the
        // reports: run() hands back the stored result without re-running.
        finish_tenant(tenant, tenant.session->run());
      } else {
        set_status(tenant, status == "paused" ? "paused" : "running");
      }
    } catch (const std::exception& e) {
      // An unrecoverable campaign (corrupt state, unloadable spec) is
      // marked failed with the reason; the daemon still serves the rest.
      std::lock_guard<std::mutex> lk(mu_);
      auto it = tenants_.find(id);
      if (it != tenants_.end()) {
        it->second->detail = e.what();
        set_status(*it->second, "failed");
      } else {
        store_.write_status(id, std::string("failed\n") + e.what());
      }
    }
  }
}

void Server::run_slice(Tenant& tenant) {
  core::Session& session = *tenant.session;
  session.request_pause_at(tenant.merged.load(std::memory_order_relaxed) +
                           options_.slice_iterations);
  try {
    const core::CampaignResult result = session.run();
    slices_.add(0);
    tenant.merged.store(result.history.size(), std::memory_order_relaxed);
    tenant.vulns.store(result.vulns.size(), std::memory_order_relaxed);
    if (!session.paused()) {
      finish_tenant(tenant, result);
    }
    // Paused mid-campaign: the frontier sink already persisted state.bin
    // at the boundary; the tenant keeps its status and waits for the
    // next round (or stays paused/cancelled if a verb changed it).
  } catch (const std::exception& e) {
    fail_tenant(tenant, e.what());
  }
}

void Server::finish_tenant(Tenant& tenant,
                           const core::CampaignResult& result) {
  {
    std::ofstream text(store_.report_text_path(tenant.id), std::ios::trunc);
    core::write_text_report(text, result, &tenant.spec);
  }
  {
    std::ofstream json(store_.report_json_path(tenant.id), std::ios::trunc);
    core::write_json_report(json, result, 64, &tenant.spec);
  }
  std::lock_guard<std::mutex> lk(mu_);
  set_status(tenant, "done");
}

void Server::fail_tenant(Tenant& tenant, const std::string& why) {
  std::lock_guard<std::mutex> lk(mu_);
  tenant.detail = why;
  set_status(tenant, "failed");
}

void Server::runner_main() {
  std::vector<Tenant*> runnable;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    runnable.clear();
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [id, tenant] : tenants_) {
        if (tenant->status == "running") runnable.push_back(tenant.get());
      }
    }
    if (runnable.empty()) {
      std::unique_lock<std::mutex> lk(mu_);
      runnable_cv_.wait_for(lk, std::chrono::milliseconds(50));
      continue;
    }
    // One slice per runnable tenant per round — fair scheduling with a
    // deterministic per-tenant quantum, multiplexed over the shared pool.
    pool_.parallel_for(runnable.size(), [&](std::size_t i, std::size_t) {
      run_slice(*runnable[i]);
    });
  }
}

void Server::run() {
  runner_ = std::thread([this] { runner_main(); });
  while (!shutdown_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      open_fds_.push_back(fd);
    }
    // A finished handler keeps its stack mapped until joined, so reap
    // before adding: a scrape-per-connection client stays bounded.
    reap_connections();
    auto conn = std::make_unique<Connection>();
    Connection* c = conn.get();
    c->thread = std::thread([this, fd, c] {
      handle_connection(fd);
      c->finished.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(conn));
  }
  if (runner_.joinable()) runner_.join();
  {
    // Unblock any handler still parked in read()/poll().
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (const auto& c : connections_) {
    if (c->thread.joinable()) c->thread.join();
  }
  connections_.clear();
}

void Server::reap_connections() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->finished.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

void Server::shutdown() {
  if (shutdown_.exchange(true)) return;
  // Running campaigns stop at their next merge boundary; the pause path
  // fires every frontier sink, so each tenant's state.bin is current
  // before the runner round ends.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [id, tenant] : tenants_) {
    if (tenant->session) tenant->session->request_pause();
  }
  runnable_cv_.notify_all();
}

void Server::handle_connection(int fd) {
  std::string frame;
  try {
    while (!shutdown_.load(std::memory_order_relaxed)) {
      if (!read_frame(fd, frame)) break;  // clean EOF
      bool streamed = false;
      const std::string response = handle_request(frame, fd, streamed);
      if (!streamed) write_frame(fd, response);
    }
  } catch (const ProtocolError& e) {
    // A malformed frame (oversized prefix, cut mid-frame) poisons the
    // stream — answer once if the socket still works, then drop the
    // connection. The daemon itself stays up.
    try {
      write_frame(fd, std::string("{\"error\": \"") + escape_json(e.what()) +
                          "\"}");
    } catch (...) {
    }
  } catch (...) {
  }
  std::lock_guard<std::mutex> lk(conn_mu_);
  const auto it = std::find(open_fds_.begin(), open_fds_.end(), fd);
  if (it != open_fds_.end()) {
    ::close(fd);
    open_fds_.erase(it);
  }
}

std::string Server::handle_request(const std::string& frame, int fd,
                                   bool& streamed) {
  try {
    const Request req = parse_request(frame);

    if (req.verb == "submit") {
      core::CampaignSpec spec =
          core::CampaignSpec::from_toml_string(req.spec_toml);
      // A tenant campaign runs single-worker inside the shared pool;
      // jobs is result-neutral, so this changes scheduling only.
      spec.set("jobs", "1");
      spec.validate();
      const std::string id = store_.create(spec);
      Tenant& tenant = create_tenant(id, std::move(spec));
      attach_session(tenant);
      {
        std::lock_guard<std::mutex> lk(mu_);
        set_status(tenant, "running");
      }
      runnable_cv_.notify_all();
      return "{\"ok\": true, \"id\": \"" + escape_json(id) + "\"}";
    }

    if (req.verb == "list") {
      std::string out = "{\"ok\": true, \"campaigns\": [";
      std::lock_guard<std::mutex> lk(mu_);
      bool first = true;
      for (const auto& [id, tenant] : tenants_) {
        if (!first) out += ", ";
        first = false;
        out += "{\"id\": \"" + escape_json(id) + "\", \"status\": \"" +
               escape_json(tenant->status) + "\", \"iterations\": " +
               std::to_string(tenant->merged.load(std::memory_order_relaxed)) +
               ", \"vulns\": " +
               std::to_string(tenant->vulns.load(std::memory_order_relaxed)) +
               "}";
      }
      return out + "]}";
    }

    if (req.verb == "metrics" && req.id.empty()) {
      // Daemon-wide scrape: daemon families plus every tenant under its
      // id label, one exposition.
      return "{\"ok\": true, \"metrics\": \"" +
             escape_json(render_metrics("")) + "\"}";
    }

    if (req.verb == "shutdown") {
      write_frame(fd, "{\"ok\": true, \"detail\": \"shutting down; campaigns "
                      "resume on the next start\"}");
      streamed = true;  // the response is already on the wire
      shutdown();
      return "";
    }

    // Every remaining verb addresses one campaign.
    Tenant* tenant = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = tenants_.find(req.id);
      if (it != tenants_.end()) tenant = it->second.get();
    }
    if (tenant == nullptr) {
      std::vector<std::string> known;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto& [id, t] : tenants_) known.push_back(id);
      }
      std::string msg = "unknown campaign id '" + req.id + "'";
      const std::string hint = util::closest_match(req.id, known);
      if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
      throw ProtocolError(msg);
    }

    if (req.verb == "metrics") {
      return "{\"ok\": true, \"metrics\": \"" +
             escape_json(render_metrics(req.id)) + "\"}";
    }

    if (req.verb == "status") {
      std::lock_guard<std::mutex> lk(mu_);
      std::string out = "{\"ok\": true, \"id\": \"" + escape_json(req.id) +
                        "\", \"status\": \"" + escape_json(tenant->status) +
                        "\", \"iterations\": " +
                        std::to_string(
                            tenant->merged.load(std::memory_order_relaxed)) +
                        ", \"vulns\": " +
                        std::to_string(
                            tenant->vulns.load(std::memory_order_relaxed)) +
                        ", \"budget\": " +
                        std::to_string(tenant->spec.budget.iterations) +
                        ", \"iters_per_sec\": " +
                        fmt_rate(tenant->rate_milli.load(
                            std::memory_order_relaxed));
      if (!tenant->detail.empty()) {
        out += ", \"detail\": \"" + escape_json(tenant->detail) + "\"";
      }
      return out + "}";
    }

    if (req.verb == "events") {
      streamed = true;
      stream_events(fd, req.id, req.from, req.follow);
      return "";
    }

    if (req.verb == "pause") {
      std::lock_guard<std::mutex> lk(mu_);
      if (is_terminal(tenant->status)) {
        throw ProtocolError("campaign '" + req.id + "' already ended (" +
                            tenant->status + ")");
      }
      if (tenant->status == "running") {
        set_status(*tenant, "paused");
        if (tenant->session) tenant->session->request_pause();
      }
      return "{\"ok\": true, \"id\": \"" + escape_json(req.id) +
             "\", \"status\": \"paused\"}";
    }

    if (req.verb == "resume") {
      std::lock_guard<std::mutex> lk(mu_);
      if (is_terminal(tenant->status)) {
        throw ProtocolError("campaign '" + req.id + "' already ended (" +
                            tenant->status + ")");
      }
      if (tenant->status == "paused") set_status(*tenant, "running");
      runnable_cv_.notify_all();
      return "{\"ok\": true, \"id\": \"" + escape_json(req.id) +
             "\", \"status\": \"running\"}";
    }

    if (req.verb == "cancel") {
      std::lock_guard<std::mutex> lk(mu_);
      if (!is_terminal(tenant->status)) {
        set_status(*tenant, "cancelled");
        if (tenant->session) tenant->session->request_pause();
      }
      return "{\"ok\": true, \"id\": \"" + escape_json(req.id) +
             "\", \"status\": \"" + escape_json(tenant->status) + "\"}";
    }

    throw ProtocolError("verb '" + req.verb + "' is not implemented");
  } catch (const std::exception& e) {
    return std::string("{\"error\": \"") + escape_json(e.what()) + "\"}";
  }
}

std::string Server::render_metrics(const std::string& id) {
  obs::PrometheusRenderer renderer;
  struct Target {
    std::string id;
    Tenant* tenant;
  };
  std::vector<Target> targets;
  std::size_t active = 0;
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [tid, tenant] : tenants_) {
      ++total;
      if (tenant->status == "running") ++active;
      if (id.empty() || tid == id) targets.push_back({tid, tenant.get()});
    }
  }
  if (id.empty()) {
    renderer.add(daemon_metrics_.snapshot(), "");
    renderer.add_sample("daemon/tenants", "gauge",
                        static_cast<double>(total), "");
    renderer.add_sample("daemon/tenants_active", "gauge",
                        static_cast<double>(active), "");
  }
  for (const Target& target : targets) {
    const std::string labels = "id=\"" + escape_json(target.id) + "\"";
    Tenant* t = target.tenant;
    // The session registry snapshot is mutex+atomic internally, safe to
    // take while the runner is mid-slice in the same session.
    if (t->session != nullptr) {
      renderer.add(t->session->metrics_snapshot(), labels);
    }
    renderer.add_sample(
        "tenant/iters_per_sec", "gauge",
        static_cast<double>(t->rate_milli.load(std::memory_order_relaxed)) /
            1e3,
        labels);
    const std::uint64_t merged = t->merged.load(std::memory_order_relaxed);
    const std::uint64_t durable =
        t->last_state_merged.load(std::memory_order_relaxed);
    renderer.add_sample(
        "tenant/events_lag_iterations", "gauge",
        static_cast<double>(merged > durable ? merged - durable : 0),
        labels);
    renderer.add_sample("tenant/budget_iterations", "gauge",
                        static_cast<double>(t->spec.budget.iterations),
                        labels);
  }
  return renderer.render();
}

void Server::stream_events(int fd, const std::string& id, std::uint64_t from,
                           bool follow) {
  const std::string path = store_.events_path(id);
  std::size_t sent = static_cast<std::size_t>(from);
  for (;;) {
    const std::vector<std::string> lines = read_lines(path);
    for (; sent < lines.size(); ++sent) write_frame(fd, lines[sent]);

    std::string status;
    std::uint64_t merged = 0;
    std::uint64_t vulns = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = tenants_.find(id);
      if (it != tenants_.end()) {
        status = it->second->status;
        merged = it->second->merged.load(std::memory_order_relaxed);
        vulns = it->second->vulns.load(std::memory_order_relaxed);
      }
    }
    const bool detach = shutdown_.load(std::memory_order_relaxed);
    if (!follow || is_terminal(status) || detach) {
      write_frame(fd, "{\"event\": \"end\", \"status\": \"" +
                          escape_json(detach && !is_terminal(status)
                                          ? "detached"
                                          : status) +
                          "\", \"iterations\": " + std::to_string(merged) +
                          ", \"vulns\": " + std::to_string(vulns) + "}");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace specure::serve
