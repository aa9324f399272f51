// Fixed-size bitset with atomic word access — the "LP channel already
// covered" snapshot shared between the result merger (single writer,
// monotonic sets only) and the simulation workers (readers) while both
// run concurrently in the pipelined campaign executor.
//
// A plain std::vector<bool> is a data race there; this shadow makes the
// sharing well-defined without making the campaign timing-dependent: a
// worker that reads a stale word merely probes a channel the merger's
// idempotent LpCoveredSet::commit() would have filtered anyway, so the
// merged result is identical either way (see core/result_merger.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace specure::util {

class AtomicBitset {
 public:
  AtomicBitset() = default;
  explicit AtomicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64) {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  // Movable so owners can default-construct then resize; never move while
  // readers are live (the campaign builds the set before workers start).
  AtomicBitset(AtomicBitset&& other) noexcept
      : bits_(other.bits_), words_(std::move(other.words_)) {}
  AtomicBitset& operator=(AtomicBitset&& other) noexcept {
    bits_ = other.bits_;
    words_ = std::move(other.words_);
    return *this;
  }

  std::size_t size() const { return bits_; }

  /// Writer side (the merger): monotonic — bits are set, never cleared.
  void set(std::size_t bit) {
    words_[bit >> 6].fetch_or(std::uint64_t{1} << (bit & 63),
                              std::memory_order_release);
  }

  /// Reader side (workers). A stale false is harmless by construction
  /// (callers only use the bit to skip redundant work).
  bool test(std::size_t bit) const {
    return (words_[bit >> 6].load(std::memory_order_relaxed) >>
            (bit & 63)) & 1;
  }

  /// Single-threaded reset between campaigns.
  void clear() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace specure::util
