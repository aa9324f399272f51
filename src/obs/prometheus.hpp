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

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace specure::obs {

/// Accumulates snapshots (each under its own label set) and renders one
/// well-formed exposition: every family's samples grouped under a single
/// `# TYPE` line, families in first-seen order. This is what makes the
/// daemon's multi-tenant exposition valid — N tenants share the family
/// names and differ only in their `id` label. Sample lines go into one
/// buffer that families index by span, so a render allocates only as a
/// few buffers grow: scrapes run beside busy workers, where every cache
/// line a render touches costs more.
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
    std::string name;  ///< exposition name, e.g. "specure_jobs_total"
    std::string type;  ///< "counter" | "gauge" | "histogram"
  };
  /// The sample lines one instrument (or ad-hoc sample) contributed to
  /// one family: the span [begin, end) of lines_.
  struct Block {
    std::size_t family = 0;  ///< index into families_
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Start a block in the family named name_ (registering the family
  /// with `type` on first sight).
  void open_block(const char* type);
  /// Append one sample line, `name_suffix{labels,extra} value`, to the
  /// open block; the braces appear only when some label is present.
  void append_line(std::string_view suffix, const std::string& labels,
                   std::string_view extra, std::string_view value);

  std::vector<Family> families_;  ///< first-seen order
  std::vector<Block> blocks_;     ///< add order
  std::string lines_;             ///< every block's lines, back to back
  std::string name_;              ///< the current instrument's family name
};

/// One-snapshot convenience: append the snapshot's series to `out`.
void render_prometheus(const Snapshot& snapshot, const std::string& labels,
                       std::string& out);

}  // namespace specure::obs
