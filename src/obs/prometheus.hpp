// Prometheus text-exposition rendering of a metrics Snapshot (the serve
// daemon's `metrics` verb and the per-tenant metrics.prom stamps).
//
// Name mapping is mechanical so every registered instrument is exported
// without a hand-maintained table:
//   counter   "stage/merge_ns"   -> specure_stage_merge_seconds_total
//   counter   "campaign/iterations" -> specure_campaign_iterations_total
//   gauge     "campaign/covered_pdlc" -> specure_campaign_covered_pdlc
//   histogram "hist/queue_wait_ns" -> specure_queue_wait_seconds bucket
//             series (cumulative "le" in seconds) + _sum + _count
// A "_ns" suffix marks nanosecond instruments; they are exported in
// seconds per Prometheus convention. `labels` (e.g. `id="c0001"`) is
// spliced into every series verbatim.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace specure::obs {

/// Accumulates snapshots (each under its own label set) and renders one
/// well-formed exposition: every family's samples grouped under a single
/// `# TYPE` line, families in first-seen order. This is what makes the
/// daemon's multi-tenant exposition valid — N tenants share the family
/// names and differ only in their `id` label.
class PrometheusRenderer {
 public:
  /// Add every series of `snapshot` under `labels` (either empty or a
  /// comma-separated list of already-escaped label pairs).
  void add(const Snapshot& snapshot, const std::string& labels);

  /// Add one ad-hoc sample (daemon-level gauges computed at render
  /// time). `family` is the raw registry-style name ("daemon/tenants"),
  /// mapped exactly like registered instruments.
  void add_sample(const std::string& family, const char* type, double value,
                  const std::string& labels);

  std::string render() const;

 private:
  struct Family {
    std::string type;  ///< "counter" | "gauge" | "histogram"
    std::string text;  ///< rendered sample lines, each ending in '\n'
  };

  Family& family(const std::string& name, const char* type);

  std::vector<std::string> order_;  ///< first-seen family order
  std::map<std::string, Family> families_;
};

/// One-snapshot convenience: append the snapshot's series to `out`.
void render_prometheus(const Snapshot& snapshot, const std::string& labels,
                       std::string& out);

}  // namespace specure::obs
