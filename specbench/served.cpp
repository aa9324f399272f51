// Served pass: campaigns submitted to an in-process `serve::Server` over
// its Unix socket, with an open-loop client scraping `metrics` and polling
// `status` until every tenant is done.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/report.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "specbench.hpp"

namespace specbench {

using namespace specure;

core::CampaignSpec tenant_spec(const core::CampaignSpec& spec) {
  // Exactly what the daemon does with a submitted spec.
  core::CampaignSpec tenant = core::CampaignSpec::from_toml_string(spec.to_toml());
  tenant.set("jobs", "1");
  tenant.validate();
  return tenant;
}

std::string zero_seconds(std::string report) {
  const std::string key = "\"seconds\": ";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return report;
  const std::size_t begin = at + key.size();
  const std::size_t end = report.find_first_of(",}", begin);
  if (end == std::string::npos) return report;
  return report.substr(0, begin) + "0" + report.substr(end);
}

std::string normalized_report(const core::CampaignSpec& spec,
                              const core::CampaignResult& result) {
  std::ostringstream os;
  core::write_json_report(os, result, 64, &spec);  // as Server::finish_tenant
  return zero_seconds(os.str());
}

namespace {

/// The daemon's shape: shared pool contexts and iterations per tenant per
/// round, the client's request period, and how long tenants may take.
constexpr std::size_t kPoolWorkers = 2;
constexpr std::uint64_t kSliceIterations = 32;
constexpr double kRequestPeriodMs = 4;
constexpr double kDeadlineSeconds = 120;

/// Value of an unlabelled sample line "<name> <value>" in a Prometheus
/// text page; 0 when absent.
double prom_value(const std::string& page, const std::string& name) {
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0;
}

/// Rebuild a registry histogram from its Prometheus exposition (cumulative
/// log2 buckets, `le` in seconds) so its percentile() can be used.
obs::HistogramSnapshot prom_histogram(const std::string& page,
                                      const std::string& family) {
  obs::HistogramSnapshot h;
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream in(page);
  std::string line;
  std::uint64_t previous = 0;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const auto cumulative = static_cast<std::uint64_t>(
        std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10));
    if (le == "+Inf") {
      h.count = cumulative;
      continue;
    }
    const auto upper_ns =
        static_cast<std::uint64_t>(std::llround(std::strtod(le.c_str(), nullptr) * 1e9));
    h.buckets[obs::Histogram::bucket_of(upper_ns)] += cumulative - previous;
    previous = cumulative;
  }
  return h;
}

std::string submit_frame(const core::CampaignSpec& spec) {
  return "{\"verb\": \"submit\", \"spec\": \"" +
         serve::escape_json(spec.to_toml()) + "\"}";
}

bool is_ok(const serve::Json& response) {
  const serve::Json* ok = response.find("ok");
  return ok != nullptr && ok->kind == serve::Json::Kind::kBool && ok->boolean;
}

std::string field_text(const serve::Json& response, const char* key) {
  const serve::Json* f = response.find(key);
  return f != nullptr && f->kind == serve::Json::Kind::kString ? f->text : "";
}

/// The daemon with its accept loop on a thread; stopped and joined on
/// every exit path.
class RunningServer {
 public:
  explicit RunningServer(serve::ServerOptions options)
      : server_(std::move(options)), thread_([this] {
          try {
            server_.run();
          } catch (...) {
            server_.shutdown();
          }
        }) {}
  ~RunningServer() {
    server_.shutdown();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  const serve::Server& server() const { return server_; }

 private:
  serve::Server server_;
  std::thread thread_;
};

}  // namespace

ServedRun run_served(const std::vector<core::CampaignSpec>& tenants,
                     const ServedOptions& options) {
  ServedRun out;
  std::filesystem::remove_all(options.dir);
  std::filesystem::create_directories(options.dir);
  serve::ServerOptions server_options;
  // Relative to the working directory: a Unix socket path is limited to
  // ~107 bytes, and checkouts can live anywhere.
  server_options.socket_path = options.dir + "/d.sock";
  server_options.store_root = options.dir + "/store";
  server_options.workers = kPoolWorkers;
  server_options.slice_iterations = kSliceIterations;

  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> ids;
  Clock::time_point first_submit{};
  Clock::time_point all_done{};
  {
    RunningServer daemon(server_options);
    serve::Client client(server_options.socket_path);
    for (const core::CampaignSpec& spec : tenants) {
      if (ids.empty()) first_submit = Clock::now();
      const serve::Json ack = client.request(submit_frame(spec));
      ++out.requests;
      if (!is_ok(ack)) {
        throw std::runtime_error("submit refused: " + field_text(ack, "error"));
      }
      ids.push_back(field_text(ack, "id"));
    }
    out.setup_s = seconds_between(t0, Clock::now());
    if (options.setup_only) return out;

    std::vector<bool> done(ids.size(), false);
    std::size_t remaining = ids.size();
    std::size_t next_status = 0;
    const Clock::time_point deadline =
        first_submit + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDeadlineSeconds));
    bool timed_out = false;
    OpenLoop loop(kRequestPeriodMs, options.seed);
    loop.run(
        [&](std::size_t i) {
          if (i % 2 == 0) {
            const serve::Json r = client.request("{\"verb\": \"metrics\"}");
            return is_ok(r) && !field_text(r, "metrics").empty();
          }
          // Status polls rotate over the tenants still running; the
          // campaign clock stops at the response that saw the last done.
          while (done[next_status]) next_status = (next_status + 1) % ids.size();
          const std::size_t k = next_status;
          next_status = (next_status + 1) % ids.size();
          const serve::Json r = client.request(
              "{\"verb\": \"status\", \"id\": \"" + ids[k] + "\"}");
          const std::string status = field_text(r, "status");
          if (status == "done" || status == "failed" || status == "cancelled") {
            done[k] = true;
            if (--remaining == 0) all_done = Clock::now();
          }
          return is_ok(r) && status != "failed" && status != "cancelled";
        },
        [&] {
          if (remaining == 0) return true;
          timed_out = Clock::now() > deadline;
          return timed_out;
        });
    out.requests += loop.attempted();
    out.failed += loop.failed() + (timed_out ? 1 : 0);
    // Scrape latency is that of the `metrics` requests (the even ones);
    // mixing in the much cheaper status polls would put the median on the
    // boundary between two populations.
    for (std::size_t i = 0; i < loop.latencies_ms().size(); i += 2) {
      out.latency_ms.push_back(loop.latencies_ms()[i]);
    }
    out.late_ms_max = loop.late_ms_max();
    if (timed_out) all_done = Clock::now();
    out.campaign_s = seconds_between(first_submit, all_done);

    const serve::Json scrape = client.request("{\"verb\": \"metrics\"}");
    ++out.requests;
    if (!is_ok(scrape)) ++out.failed;
    const std::string page = field_text(scrape, "metrics");
    out.slices = prom_value(page, "specure_daemon_slices_total");
    out.state_writes = prom_value(page, "specure_daemon_state_writes_total");
    const obs::HistogramSnapshot writes =
        prom_histogram(page, "specure_daemon_state_write_seconds");
    out.state_write_ms_p50 = writes.percentile(50) / 1e6;
    out.state_write_ms_p95 = writes.percentile(95) / 1e6;

    const serve::CampaignStore& store = daemon.server().store();
    for (const std::string& id : ids) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(store.state_path(id), ec);
      if (!ec) out.state_bytes += static_cast<double>(bytes);
      std::ifstream in(store.report_json_path(id), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      out.reports.push_back(zero_seconds(text.str()));
    }
    out.vmsize_mib = proc_status_field("VmSize") / 1024.0;
    out.threads = proc_status_field("Threads");
  }
  std::filesystem::remove_all(options.dir);
  return out;
}

}  // namespace specbench
