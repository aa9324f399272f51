// The daemon's on-disk campaign store: one directory per submitted
// campaign, holding everything needed to observe it and to recover it
// after a restart (or a kill -9):
//
//   <root>/
//     c0001/
//       spec.toml     submitted spec (written once at submit)
//       state.bin     durable resume frontier (campaign_state format)
//       events.jsonl  observer event log, one JSON object per line
//       status        lifecycle: queued|running|paused|done|failed|cancelled
//       report.txt    final text report (written when the campaign ends)
//       report.json   final JSON report
//       metrics.prom  metrics snapshot (stamped by the state writer,
//                     at most once a second and at completion)
//
// Campaign ids are dense ("c0001", "c0002", ...) and never reused within
// a store. The store itself is dumb — pure path bookkeeping and atomic
// small-file writes; all scheduling lives in serve::Server.
#pragma once

#include <string>
#include <vector>

#include "core/campaign_spec.hpp"

namespace specure::serve {

class CampaignStore {
 public:
  /// Open (creating if needed) a store rooted at `root`. Throws
  /// StateError when the root cannot be created or written.
  explicit CampaignStore(std::string root);

  const std::string& root() const { return root_; }

  /// Allocate the next campaign id, create its directory and persist the
  /// spec. Returns the id.
  std::string create(const core::CampaignSpec& spec);

  /// All campaign ids present on disk, sorted (restart recovery scan).
  std::vector<std::string> ids() const;
  bool exists(const std::string& id) const;

  std::string dir(const std::string& id) const { return root_ + "/" + id; }
  std::string spec_path(const std::string& id) const {
    return dir(id) + "/spec.toml";
  }
  std::string state_path(const std::string& id) const {
    return dir(id) + "/state.bin";
  }
  std::string events_path(const std::string& id) const {
    return dir(id) + "/events.jsonl";
  }
  std::string status_path(const std::string& id) const {
    return dir(id) + "/status";
  }
  std::string report_text_path(const std::string& id) const {
    return dir(id) + "/report.txt";
  }
  std::string report_json_path(const std::string& id) const {
    return dir(id) + "/report.json";
  }
  /// Prometheus-text metrics snapshot, stamped by the daemon's state
  /// writer after a state.bin write: at most once a second per tenant,
  /// and always for the completed frontier (atomic tmp+rename, like
  /// status). Absent until the campaign's first state write.
  std::string metrics_path(const std::string& id) const {
    return dir(id) + "/metrics.prom";
  }

  /// Write the status file atomically (tmp + rename). The first line is
  /// the lifecycle word; any further lines are a human-readable detail
  /// (e.g. the failure message).
  void write_status(const std::string& id, const std::string& status) const;
  /// First line of the status file, or "" when absent.
  std::string read_status(const std::string& id) const;

 private:
  std::string root_;
};

}  // namespace specure::serve
