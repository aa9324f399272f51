// L1 data cache: set-associative, LRU, write-through (memory holds the
// authoritative data; the cache tracks tags/valid/LRU plus a per-line data
// digest exposed to snapshots). Cache state changes caused by speculative
// accesses persist across pipeline squashes — the classic Spectre residue.
//
// For the (M)WAIT emulation the cache reports every change to a monitored
// line (fill, eviction, or data write) via a callback, matching the
// paper's "modified BOOM's data cache to turn off the timer ... with
// corresponding cache line changes".
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/config.hpp"
#include "sim/dirty_set.hpp"
#include "sim/memory.hpp"

namespace specure::sim {

enum class DcacheEvent : std::uint8_t { kHit, kFill, kEviction, kWrite };

class Dcache {
 public:
  Dcache(const CoreConfig& cfg, Memory& mem);

  /// Notifies on every state change of a line: (line_base_addr, event).
  using LineChangeHook = std::function<void(std::uint64_t, DcacheEvent)>;
  void set_line_change_hook(LineChangeHook hook) { hook_ = std::move(hook); }

  /// Attach the core's dirty set. Any mapped access can rotate the set's
  /// LRU (even a hit) and a miss fills/evicts a way, so load()/store()
  /// mark the accessed set's whole signal block: `set_stride` ids
  /// (ways × valid/tag/data + lru) starting at `dcache_base +
  /// set * set_stride`. Conservative per-set marking is exact — unchanged
  /// values record no events.
  void bind_dirty(DirtySet* dirty, std::size_t dcache_base,
                  std::size_t set_stride) {
    dirty_ = dirty;
    dcache_base_ = dcache_base;
    set_stride_ = set_stride;
  }

  /// Access for a load. Returns true on hit; on miss the line is filled
  /// (and an LRU victim possibly evicted). Always reads the data through
  /// to `value`.
  bool load(std::uint64_t addr, unsigned size, std::uint64_t& value);

  /// Access for a (committed) store: write-through to memory; if the line
  /// is resident its digest is refreshed, otherwise it is filled
  /// (write-allocate).
  void store(std::uint64_t addr, unsigned size, std::uint64_t value);

  // Snapshot accessors (per set/way).
  bool valid(unsigned set, unsigned way) const;
  std::uint64_t tag(unsigned set, unsigned way) const;
  std::uint64_t data_digest(unsigned set, unsigned way) const;
  std::uint8_t lru(unsigned set) const { return lru_[set]; }

  unsigned sets() const { return cfg_.dcache_sets; }
  unsigned ways() const { return cfg_.dcache_ways; }

  std::uint64_t line_base(std::uint64_t addr) const;
  /// True if the line containing addr is currently resident.
  bool line_resident(std::uint64_t addr) const;

 private:
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;      ///< full line base address
    std::uint64_t digest = 0;   ///< XOR digest of line contents
  };

  unsigned set_index(std::uint64_t addr) const;
  std::uint64_t compute_digest(std::uint64_t line_addr) const;
  Line* lookup(std::uint64_t addr);
  void fill(std::uint64_t addr);
  void mark_set(std::uint64_t addr) {
    if (dirty_ != nullptr) {
      dirty_->mark_range(dcache_base_ + set_index(addr) * set_stride_,
                         set_stride_);
    }
  }

  const CoreConfig& cfg_;
  Memory& mem_;
  std::vector<Line> lines_;      ///< sets * ways, row-major by set
  std::vector<std::uint8_t> lru_;  ///< way index of LRU entry per set
  LineChangeHook hook_;
  DirtySet* dirty_ = nullptr;
  std::size_t dcache_base_ = 0;
  std::size_t set_stride_ = 0;
};

}  // namespace specure::sim
