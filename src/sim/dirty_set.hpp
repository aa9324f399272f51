// Per-cycle dirty-signal bitset — the capture engine's change list.
//
// Every microarch component holds a pointer to the core's DirtySet and
// marks the flat signal ids it writes as it writes them. The core marks
// its own registers (fetch PC, the ROB/commit/brupdate block and the
// exec/LSU wires) itself, at capture, when their value differs from the
// one it last captured. capture() then walks only the set bits instead
// of sweeping the whole schema, and clears the set. A conservative
// superset is exact: the delta-native Trace appends an event only when a
// value actually changed, so marking too much costs one value_of() call,
// never a wrong event.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace specure::sim {

class DirtySet {
 public:
  /// Size the bitset for `n_signals` flat ids, all clear.
  void init(std::size_t n_signals) {
    words_.assign((n_signals + 63) / 64, 0);
  }

  void mark(std::size_t id) {
    words_[id >> 6] |= std::uint64_t{1} << (id & 63);
  }

  void mark_range(std::size_t from, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) mark(from + k);
  }

  /// End-of-capture reset: the next cycle starts with nothing marked.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of marked ids.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;  ///< this cycle's dirty set
};

}  // namespace specure::sim
