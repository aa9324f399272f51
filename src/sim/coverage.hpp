// Traditional code-coverage instrumentation for the PUT: branch, FSM and
// condition coverage points plus the toggle coverage derived from
// snapshots. This is the feedback signal of the *baseline* fuzzer the
// paper compares against (TheHuzz-style "FSM, toggle, branch, condition"
// coverage, §4.2), and also part of the Microarchitecture Visualizer's
// outputs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace specure::sim {

/// The core's instrumented coverage sites. Each has two outcomes, so the
/// point universe is 2 × kCount points: site s with outcome o is bit
/// 2 * s + o of CoverageRecorder::points(). The numbering is part of the
/// campaign state format.
enum class CoverageSite : std::uint8_t {
  kDecodeValid,               ///< branch: fetched word decodes
  kTlbHit,                    ///< branch: load/store TLB lookup hits
  kDcacheHit,                 ///< branch: load hits the data cache
  kDcacheState,               ///< FSM: data-cache state (0 hit, 1 miss)
  kBpPredTaken,               ///< branch: conditional branch predicted taken
  kRobResolveMispredict,      ///< branch: control resolves mispredicted
  kRenameRollbackSuppressed,  ///< condition: Zenbleed suppresses rollback
  kLsuStoreMapped,            ///< branch: committed store hits mapped data
  kLsuTaintedSpecAccess,      ///< condition: tainted speculative access
  kCsrImplemented,            ///< condition: accessed CSR is implemented
  kCount
};

/// Accumulates covered points during one simulation run, or across runs
/// when merged into a campaign-wide recorder.
class CoverageRecorder {
 public:
  static constexpr unsigned kPointCount =
      2 * static_cast<unsigned>(CoverageSite::kCount);
  /// Every point bit a recorder can hold.
  static constexpr std::uint64_t kAllPoints =
      (std::uint64_t{1} << kPointCount) - 1;

  /// Record one outcome at a site (a branch direction, an FSM state of a
  /// two-state machine, a condition value).
  void hit(CoverageSite site, bool outcome) {
    points_ |= std::uint64_t{1} << (2 * static_cast<unsigned>(site) +
                                    (outcome ? 1 : 0));
  }

  /// Record a signal bit-toggle count bucket (toggle coverage summary).
  void toggles(std::uint64_t bits_toggled) { toggle_bits_ += bits_toggled; }

  /// Covered points, one bit each (see CoverageSite).
  std::uint64_t points() const { return points_; }
  std::uint64_t toggle_bits() const { return toggle_bits_; }

  std::size_t point_count() const {
    return static_cast<std::size_t>(std::popcount(points_));
  }

  /// Merge another run's points into this accumulator. Returns the number
  /// of *new* points contributed (the fuzzer's "is this input interesting"
  /// signal).
  std::size_t merge(const CoverageRecorder& other) {
    const std::uint64_t fresh = other.points_ & ~points_;
    points_ |= other.points_;
    toggle_bits_ += other.toggle_bits_;
    return static_cast<std::size_t>(std::popcount(fresh));
  }

  /// Overwrite the accumulator from a saved point mask + toggle count
  /// (campaign state restore).
  void restore(std::uint64_t points, std::uint64_t toggle_bits) {
    points_ = points;
    toggle_bits_ = toggle_bits;
  }

  void clear() { restore(0, 0); }

 private:
  std::uint64_t points_ = 0;
  std::uint64_t toggle_bits_ = 0;
};

}  // namespace specure::sim
