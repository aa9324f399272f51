#include "obs/trace.hpp"

#include <algorithm>

namespace specure::obs {

namespace {

/// Span names and lane labels are code-controlled literals, but escape
/// defensively so the emitted JSON is well-formed no matter what.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Microseconds with nanosecond precision — the trace-event "ts"/"dur"
/// unit is fractional microseconds.
std::string us(std::uint64_t ns) {
  std::string out = std::to_string(ns / 1000);
  const std::uint64_t frac = ns % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + frac / 10 % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t lanes, std::size_t total_capacity)
    : epoch_(Clock::now()), lanes_(lanes == 0 ? 1 : lanes) {
  const std::size_t per_lane =
      std::max<std::size_t>(total_capacity / lanes_.size(), 1024);
  for (Lane& lane : lanes_) lane.ring.resize(per_lane);
}

void TraceRecorder::set_lane_name(std::size_t lane, std::string name) {
  if (lane < lanes_.size()) lanes_[lane].name = std::move(name);
}

void TraceRecorder::record(std::size_t lane, const char* name,
                           const char* category, Clock::time_point begin,
                           Clock::time_point end, std::uint64_t iteration,
                           TraceArg arg) {
  if (lane >= lanes_.size()) return;
  Lane& l = lanes_[lane];
  TraceEvent& e = l.ring[l.recorded % l.ring.size()];
  ++l.recorded;
  e.name = name;
  e.category = category;
  e.lane = static_cast<std::uint32_t>(lane);
  const auto clamp_ns = [this](Clock::time_point t) {
    return t <= epoch_
               ? std::uint64_t{0}
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t - epoch_)
                         .count());
  };
  e.ts_ns = clamp_ns(begin);
  const std::uint64_t end_ns = clamp_ns(end);
  e.dur_ns = end_ns > e.ts_ns ? end_ns - e.ts_ns : 0;
  e.iteration = iteration;
  e.arg = arg;
}

std::size_t TraceRecorder::size() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) {
    n += static_cast<std::size_t>(
        std::min<std::uint64_t>(l.recorded, l.ring.size()));
  }
  return n;
}

std::uint64_t TraceRecorder::dropped() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) {
    if (l.recorded > l.ring.size()) n += l.recorded - l.ring.size();
  }
  return n;
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Metadata: one named thread per lane, all under one process.
  sep();
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"specure\"}}";
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    sep();
    const std::string label =
        lanes_[i].name.empty() ? "lane " + std::to_string(i) : lanes_[i].name;
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << i
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << escape(label) << "\"}}";
  }

  // Complete ("X") events, oldest first per lane. Perfetto orders by
  // "ts" itself, so cross-lane ordering needs no global sort here.
  for (const Lane& l : lanes_) {
    const std::size_t held = static_cast<std::size_t>(
        std::min<std::uint64_t>(l.recorded, l.ring.size()));
    const std::uint64_t start = l.recorded - held;
    for (std::uint64_t k = 0; k < held; ++k) {
      const TraceEvent& e = l.ring[(start + k) % l.ring.size()];
      sep();
      out << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.lane
          << ", \"name\": \"" << escape(e.name ? e.name : "")
          << "\", \"cat\": \"" << escape(e.category ? e.category : "")
          << "\", \"ts\": " << us(e.ts_ns) << ", \"dur\": " << us(e.dur_ns)
          << ", \"args\": {";
      bool first_arg = true;
      const auto arg = [&](const char* name, std::int64_t value) {
        if (!first_arg) out << ", ";
        first_arg = false;
        out << "\"" << escape(name) << "\": " << value;
      };
      arg("worker", static_cast<std::int64_t>(e.lane));
      if (e.iteration != 0) {
        arg("iteration", static_cast<std::int64_t>(e.iteration));
      }
      if (e.arg.name != nullptr) arg(e.arg.name, e.arg.value);
      out << "}}";
    }
  }

  // Drop accounting: a tooling-visible marker that the rings overwrote
  // old events (the trace is the most recent window, not the whole run).
  if (dropped() != 0) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
           "\"trace_dropped_events\", \"args\": {\"count\": "
        << dropped() << "}}";
  }
  out << "\n]}\n";
}

}  // namespace specure::obs
