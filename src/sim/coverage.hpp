// Traditional code-coverage instrumentation for the PUT: branch, FSM and
// condition coverage points plus the toggle coverage derived from
// snapshots. This is the feedback signal of the *baseline* fuzzer the
// paper compares against (TheHuzz-style "FSM, toggle, branch, condition"
// coverage, §4.2), and also part of the Microarchitecture Visualizer's
// outputs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace specure::sim {

/// Accumulates covered points during one simulation run. The point
/// universe is stable across runs (ids are hashes of site names), so maps
/// from different runs can be merged to compute campaign coverage.
class CoverageRecorder {
 public:
  /// Record a two-way branch decision at a named RTL site.
  void branch(std::string_view site, bool taken);

  /// Record an FSM occupying a state.
  void fsm(std::string_view machine, std::uint32_t state);

  /// Record a boolean condition evaluation (condition coverage).
  void condition(std::string_view site, bool value);

  /// Record a signal bit-toggle count bucket (toggle coverage summary).
  void toggles(std::uint64_t bits_toggled) { toggle_bits_ += bits_toggled; }

  /// Covered point keys: "b:<site>:<dir>", "f:<machine>:<state>",
  /// "c:<site>:<val>".
  const std::unordered_set<std::string>& points() const { return points_; }
  std::uint64_t toggle_bits() const { return toggle_bits_; }

  std::size_t point_count() const { return points_.size(); }

  /// Merge another run's points into this accumulator. Returns the number
  /// of *new* points contributed (the fuzzer's "is this input interesting"
  /// signal).
  std::size_t merge(const CoverageRecorder& other);

  /// Overwrite the accumulator from a saved point list + toggle count
  /// (campaign state restore; the serializer saves points() sorted so the
  /// on-disk form is deterministic, order here is irrelevant).
  void restore(const std::vector<std::string>& points,
               std::uint64_t toggle_bits) {
    points_.clear();
    points_.insert(points.begin(), points.end());
    toggle_bits_ = toggle_bits;
  }

  void clear();

 private:
  std::unordered_set<std::string> points_;
  std::uint64_t toggle_bits_ = 0;
};

}  // namespace specure::sim
