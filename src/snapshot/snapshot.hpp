// Delta-native run traces, snapshot materialization and window diffing.
// These are the data the Leakage Detector (§3.2) consumes: the diff between
// the microarchitectural state at the start and end of a misspeculated
// window yields the potential information-leakage locations.
//
// The paper's Online Phase is built on diffing per-cycle snapshots, but
// only a handful of signals change per cycle — so Trace records
// (cycle, signal, new_value) change events instead of materializing one
// full value vector per cycle. Memory is O(changes + keyframes) instead of
// O(cycles × signals), and every window query (diff, change_counts,
// changed_mask) walks only the events inside the window. Periodic
// keyframes (one full value vector every kKeyframeInterval ticks) keep
// random-access materialization O(1) amortized.
//
// DenseTrace is the retained dense reference recorder: one full Snapshot
// per cycle, the pre-delta representation. The simulator can record both
// side by side (CoreConfig::record_dense_trace), which is the oracle the
// trace differential suite replays against.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "snapshot/signal_db.hpp"

namespace specure::snapshot {

/// State of every registered signal at one clock cycle. Values are aligned
/// with SignalDb ids.
struct Snapshot {
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> values;

  std::uint64_t operator[](SignalId id) const { return values[id]; }
};

/// One changed signal between two snapshots.
struct SignalDelta {
  SignalId id = kInvalidSignal;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
};

/// All signals whose value differs between `a` and `b` (a is "before").
std::vector<SignalDelta> diff(const Snapshot& a, const Snapshot& b);

/// Number of bit toggles between two snapshots, summed over all signals.
std::uint64_t toggle_count(const Snapshot& a, const Snapshot& b);

/// A delta-native run trace: an ordered stream of per-tick change events
/// against an implicit all-zero pre-reset state, plus periodic keyframes.
///
/// Recording (the simulator hot loop):
///   trace.begin_cycle(cycle);
///   for each signal id, ascending:  toggles += trace.record(id, value);
///
/// record() compares against the live previous-value array and appends an
/// event only when the value actually changed, returning the number of
/// toggled bits (the toggle-coverage increment). Ids must be recorded in
/// strictly ascending order within a tick and cycles must be strictly
/// increasing across ticks — both are enforced.
class Trace {
 public:
  /// One full value vector is kept every this many ticks, bounding the
  /// event replay a random-access materialization has to do.
  static constexpr std::size_t kKeyframeInterval = 64;

  explicit Trace(const SignalDb* db) : db_(db) {}

  // ---- recording --------------------------------------------------------
  /// Open a new tick. Cycles must be strictly increasing.
  void begin_cycle(std::uint64_t cycle);

  /// Record one signal's value for the open tick. Appends a change event
  /// iff the value differs from the previous tick's; returns the number of
  /// bits toggled (0 when unchanged). Ids must arrive in strictly
  /// ascending order within a tick.
  unsigned record(SignalId id, std::uint64_t value);

  /// Bulk dirty-set recorder — the simulator's per-cycle capture loop.
  /// Walks the set bits of `dirty_words`
  /// (one bit per signal id, ascending — which satisfies record()'s
  /// ordering contract), evaluates each via `value_fn(id)`, and records
  /// it for the open tick. Signals whose bit is clear are untouched: the
  /// live array keeps their previous value, which is exactly what a full
  /// sweep would have re-recorded (unchanged values append no event), so
  /// a conservative superset dirty set yields a byte-identical event
  /// stream. Returns the summed toggled-bit count.
  template <typename ValueFn>
  std::uint64_t record_dirty(const std::vector<std::uint64_t>& dirty_words,
                             ValueFn&& value_fn) {
    std::uint64_t toggles = 0;
    for (std::size_t w = 0; w < dirty_words.size(); ++w) {
      std::uint64_t bits = dirty_words[w];
      while (bits != 0) {
        const std::size_t id =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        toggles += record(static_cast<SignalId>(id), value_fn(id));
      }
    }
    return toggles;
  }

  /// Convenience recorder: one whole snapshot (all signals, SignalDb
  /// order). Equivalent to begin_cycle + record per signal.
  void push(const Snapshot& snap);

  /// Drop every recorded tick but keep the allocated column capacity, so
  /// a worker can reuse one Trace across runs without reallocating the
  /// event columns each iteration.
  void reset();

  // ---- shape ------------------------------------------------------------
  std::size_t size() const { return cycles_.size(); }
  bool empty() const { return cycles_.empty(); }
  std::uint64_t cycle_at(std::size_t index) const { return cycles_[index]; }
  const SignalDb& db() const { return *db_; }
  std::size_t event_count() const { return event_ids_.size(); }

  /// Approximate heap footprint of the recorded trace (events, tick index,
  /// keyframes, live array) — the number the trace bench reports against
  /// the dense O(cycles × signals) representation.
  std::size_t memory_bytes() const;

  // ---- materialization --------------------------------------------------
  /// Full snapshot at a recorded cycle. O(1) for contiguous cycle stamps
  /// (O(log n) otherwise) to locate the tick, then O(signals + events
  /// since the nearest keyframe) to materialize. Throws std::runtime_error
  /// naming the cycle and the covered range when the cycle was never
  /// recorded.
  Snapshot at_cycle(std::uint64_t cycle) const;

  /// Full snapshot of the i-th recorded tick (by value — the dense vector
  /// is materialized on demand).
  Snapshot operator[](std::size_t index) const;

  /// One signal's value at a recorded cycle, without materializing the
  /// rest of the snapshot.
  std::uint64_t value_at(std::uint64_t cycle, SignalId id) const;

  // ---- window queries (the Online Phase detectors) -----------------------
  /// Signals whose value differs between the snapshots at cycles `from`
  /// and `to`, ascending by id — identical to diff(at_cycle(from),
  /// at_cycle(to)) but computed from the events between the two ticks.
  std::vector<SignalDelta> diff(std::uint64_t from, std::uint64_t to) const;

  /// Per-signal count of value *changes* (not bit toggles) at recorded
  /// cycles c with from < c <= to. Out-of-range windows yield zero
  /// counts.
  std::vector<std::uint32_t> change_counts(std::uint64_t from,
                                           std::uint64_t to) const;

  /// Set of signal ids with at least one change at a recorded cycle in
  /// (from, to], written into `words` as a word bitset (id i is bit
  /// i % 64 of word i / 64; util::word_bit reads it). `words` is resized
  /// to the signal count and overwritten, so a caller that keeps it
  /// across windows allocates once. Out-of-range windows yield an empty
  /// set. Cost: O(signals / 64 + events inside the window).
  void changed_words(std::uint64_t from, std::uint64_t to,
                     std::vector<std::uint64_t>& words) const;

  /// changed_words() as one bool per signal id.
  std::vector<bool> changed_mask(std::uint64_t from, std::uint64_t to) const;

  /// True iff `id`'s value is non-zero at any recorded cycle c with
  /// from < c <= to (pulse detection, e.g. core.lsu.tainted_access).
  bool any_nonzero(SignalId id, std::uint64_t from, std::uint64_t to) const;

  /// Walk every recorded tick in order, tracking the values of `ids`.
  /// `fn(cycle, tracked)` is called once per tick with tracked[i] holding
  /// the value of ids[i] at that tick. Cost: O(ticks + total events).
  template <typename Fn>
  void scan(const std::vector<SignalId>& ids, Fn&& fn) const {
    std::vector<std::uint32_t> slot(db_->size(), ~0u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      slot[ids[i]] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint64_t> tracked(ids.size(), 0);
    for (std::size_t t = 0; t < cycles_.size(); ++t) {
      for (std::size_t e = tick_begin(t); e < tick_end(t); ++e) {
        const std::uint32_t s = slot[event_ids_[e]];
        if (s != ~0u) tracked[s] = event_values_[e];
      }
      fn(cycles_[t], tracked);
    }
  }

  // ---- event access (VCD writer, benches) --------------------------------
  std::size_t tick_begin(std::size_t index) const { return offsets_[index]; }
  std::size_t tick_end(std::size_t index) const {
    return index + 1 < offsets_.size() ? offsets_[index + 1]
                                       : event_ids_.size();
  }
  SignalId event_id(std::size_t e) const { return event_ids_[e]; }
  std::uint64_t event_value(std::size_t e) const { return event_values_[e]; }

 private:
  /// Tick index of a recorded cycle; throws with the covered range when
  /// the cycle was never recorded.
  std::size_t index_of(std::uint64_t cycle) const;
  /// Tick index of a recorded cycle, or npos when absent (no throw).
  std::size_t find_index(std::uint64_t cycle) const;
  /// The event index range [first, last) of the recorded ticks with
  /// from < cycle <= to — the one window walk change_counts and
  /// changed_words share. Ticks are contiguous in the event columns.
  std::pair<std::size_t, std::size_t> window_events(std::uint64_t from,
                                                    std::uint64_t to) const;
  /// Materialize the values after tick `index` into `out`.
  void materialize(std::size_t index, std::vector<std::uint64_t>& out) const;
  /// Seed `out` with the nearest keyframe at or before `index`; returns
  /// the first tick whose events still need replaying.
  std::size_t seed_from_keyframe(std::size_t index,
                                 std::vector<std::uint64_t>& out) const;

  const SignalDb* db_;
  std::vector<std::uint64_t> cycles_;    ///< per tick: cycle stamp
  std::vector<std::size_t> offsets_;     ///< per tick: first event index
  std::vector<SignalId> event_ids_;      ///< columnar change events
  std::vector<std::uint64_t> event_values_;
  /// Values after the last recorded tick — the simulator's previous-value
  /// array that record() detects changes against.
  std::vector<std::uint64_t> live_;
  /// Flat keyframe store, one frame of db_->size() values per
  /// kKeyframeInterval ticks: frame k (values after tick
  /// k * kKeyframeInterval) lives at [k * size, (k + 1) * size). Flat so
  /// recording allocates one growing buffer, not one vector per frame.
  std::vector<std::uint64_t> keyframes_;
  std::size_t keyframe_count() const {
    return db_->size() == 0 ? 0 : keyframes_.size() / db_->size();
  }
  bool contiguous_ = true;  ///< cycle stamps are base, base+1, base+2, ...
};

/// The dense reference recorder: the snapshot of every simulated cycle in
/// full, the representation the delta trace replaced. Kept as the oracle
/// for the trace differential suite and for dense-vs-delta benchmarking.
class DenseTrace {
 public:
  explicit DenseTrace(const SignalDb* db) : db_(db) {}

  void push(Snapshot snap) { snaps_.push_back(std::move(snap)); }
  std::size_t size() const { return snaps_.size(); }
  bool empty() const { return snaps_.empty(); }
  const Snapshot& at_cycle(std::uint64_t cycle) const;
  const Snapshot& operator[](std::size_t i) const { return snaps_[i]; }
  const SignalDb& db() const { return *db_; }

  /// Same query semantics as Trace, computed the dense way (full per-tick
  /// value-vector comparisons).
  std::vector<std::uint32_t> change_counts(std::uint64_t from,
                                           std::uint64_t to) const;
  std::vector<bool> changed_mask(std::uint64_t from, std::uint64_t to) const;

  std::size_t memory_bytes() const;

 private:
  const SignalDb* db_;
  std::vector<Snapshot> snaps_;
};

}  // namespace specure::snapshot
