// Span-based pipeline tracing, emitted as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
//
// Recording model: one single-writer ring buffer per lane (lane =
// pipeline worker or the merge strand — the same lane map as the metrics
// registry shards). A span is recorded *after* it closes, from two
// steady_clock readings the call site usually already took for its
// metrics counters, so tracing adds no synchronization to the pipeline
// and the rings need no atomics. Rings overwrite their oldest events
// once full (the per-lane drop count is reported in the written trace),
// so tracing is safe on million-iteration campaigns: the file always
// holds the most recent window of activity at a bounded memory cost.
//
// Span names/categories must be string literals (the recorder stores the
// pointers, not copies).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace specure::obs {

/// One optional integer argument attached to a span (rendered into the
/// trace event's "args" object). `name` must be a string literal.
struct TraceArg {
  const char* name = nullptr;
  std::int64_t value = 0;
};

struct TraceEvent {
  const char* name = nullptr;      ///< literal
  const char* category = nullptr;  ///< literal, e.g. "pipeline"
  std::uint32_t lane = 0;
  std::uint64_t ts_ns = 0;   ///< begin, nanoseconds since recorder epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t iteration = 0;  ///< campaign iteration; 0 = untagged
  TraceArg arg;
};

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// `total_capacity` events are split evenly across `lanes` rings
  /// (at least 1024 per lane).
  TraceRecorder(std::size_t lanes, std::size_t total_capacity);

  std::size_t lanes() const { return lanes_.size(); }

  /// Human-readable lane label for the trace's thread-name metadata.
  void set_lane_name(std::size_t lane, std::string name);

  /// Record a closed span on `lane`. Single writer per lane at any time;
  /// different lanes may record concurrently.
  void record(std::size_t lane, const char* name, const char* category,
              Clock::time_point begin, Clock::time_point end,
              std::uint64_t iteration = 0, TraceArg arg = {});

  /// Events currently retained / dropped to ring overwrite, across lanes.
  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Serialize everything retained as one Chrome trace-event JSON
  /// object. Call only with all writers quiesced (the session writes the
  /// file after worker threads joined).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Lane {
    std::vector<TraceEvent> ring;
    std::uint64_t recorded = 0;  ///< events ever recorded on this lane
    std::string name;
  };

  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

}  // namespace specure::obs
