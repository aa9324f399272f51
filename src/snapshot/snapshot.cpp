#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/bits.hpp"

namespace specure::snapshot {

std::vector<SignalDelta> diff(const Snapshot& a, const Snapshot& b) {
  if (a.values.size() != b.values.size()) {
    throw std::runtime_error("snapshot diff: mismatched schemas");
  }
  std::vector<SignalDelta> out;
  for (SignalId i = 0; i < a.values.size(); ++i) {
    if (a.values[i] != b.values[i]) {
      out.push_back({i, a.values[i], b.values[i]});
    }
  }
  return out;
}

std::uint64_t toggle_count(const Snapshot& a, const Snapshot& b) {
  if (a.values.size() != b.values.size()) {
    throw std::runtime_error("snapshot toggle_count: mismatched schemas");
  }
  std::uint64_t total = 0;
  for (SignalId i = 0; i < a.values.size(); ++i) {
    total += util::toggled_bits(a.values[i], b.values[i]);
  }
  return total;
}

// ------------------------------------------------------------------ Trace --

void Trace::begin_cycle(std::uint64_t cycle) {
  if (!cycles_.empty()) {
    if (cycle <= cycles_.back()) {
      throw std::runtime_error(
          "trace: cycles must be strictly increasing (got " +
          std::to_string(cycle) + " after " + std::to_string(cycles_.back()) +
          ")");
    }
    if (cycle != cycles_.back() + 1) contiguous_ = false;
  }
  if (live_.empty()) live_.assign(db_->size(), 0);
  cycles_.push_back(cycle);
  offsets_.push_back(event_ids_.size());
}

unsigned Trace::record(SignalId id, std::uint64_t value) {
  if (cycles_.empty()) {
    throw std::runtime_error("trace: record() before begin_cycle()");
  }
  if (id >= live_.size()) throw_outside_schema(id);
  const std::size_t tick_start = offsets_.back();
  if (event_ids_.size() > tick_start && id <= event_ids_.back()) {
    throw std::runtime_error(
        "trace: record() ids must be strictly ascending within a tick");
  }
  const std::uint64_t prev = live_[id];
  if (value == prev) return 0;
  event_ids_.push_back(id);
  event_prev_.push_back(prev);
  event_values_.push_back(value);
  live_[id] = value;
  return util::toggled_bits(prev, value);
}

void Trace::throw_record_dirty_misuse() const {
  throw std::runtime_error(
      cycles_.empty()
          ? "trace: record_dirty() before begin_cycle()"
          : "trace: record_dirty() after record() in the same tick");
}

void Trace::throw_outside_schema(std::size_t id) const {
  throw std::runtime_error("trace: signal id " + std::to_string(id) +
                           " outside the schema (" +
                           std::to_string(db_->size()) + " signals)");
}

void Trace::push(const Snapshot& snap) {
  if (snap.values.size() != db_->size()) {
    throw std::runtime_error("trace push: snapshot has " +
                             std::to_string(snap.values.size()) +
                             " values, schema has " +
                             std::to_string(db_->size()));
  }
  begin_cycle(snap.cycle);
  for (SignalId i = 0; i < snap.values.size(); ++i) record(i, snap.values[i]);
}

void Trace::reset() {
  cycles_.clear();
  offsets_.clear();
  event_ids_.clear();
  event_prev_.clear();
  event_values_.clear();
  live_.clear();
  contiguous_ = true;
}

std::size_t Trace::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += event_ids_.size() * sizeof(SignalId);
  bytes += event_prev_.size() * sizeof(std::uint64_t);
  bytes += event_values_.size() * sizeof(std::uint64_t);
  bytes += cycles_.size() * sizeof(std::uint64_t);
  bytes += offsets_.size() * sizeof(std::size_t);
  bytes += live_.size() * sizeof(std::uint64_t);
  return bytes;
}

std::size_t Trace::find_index(std::uint64_t cycle) const {
  if (cycles_.empty()) return static_cast<std::size_t>(-1);
  if (contiguous_) {
    if (cycle < cycles_.front() || cycle > cycles_.back()) {
      return static_cast<std::size_t>(-1);
    }
    return static_cast<std::size_t>(cycle - cycles_.front());
  }
  const auto it = std::lower_bound(cycles_.begin(), cycles_.end(), cycle);
  if (it == cycles_.end() || *it != cycle) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - cycles_.begin());
}

std::size_t Trace::index_of(std::uint64_t cycle) const {
  const std::size_t idx = find_index(cycle);
  if (idx == static_cast<std::size_t>(-1)) {
    std::string msg = "trace: no snapshot for cycle " + std::to_string(cycle);
    if (cycles_.empty()) {
      msg += " (trace is empty)";
    } else {
      msg += " (trace covers cycles " + std::to_string(cycles_.front()) +
             ".." + std::to_string(cycles_.back()) + ")";
    }
    throw std::runtime_error(msg);
  }
  return idx;
}

// Random access works from whichever end of the event stream is nearer:
// the live array is the state after the last tick, so undoing the events
// after `index` (each restores its previous value) reaches the same state
// as replaying the events up to it from the all-zero reset.

void Trace::materialize(std::size_t index,
                        std::vector<std::uint64_t>& out) const {
  const std::size_t split = tick_end(index);
  if (event_ids_.size() - split <= split) {
    out = live_;
    for (std::size_t e = event_ids_.size(); e-- > split;) {
      out[event_ids_[e]] = event_prev_[e];
    }
  } else {
    out.assign(db_->size(), 0);
    for (std::size_t e = 0; e < split; ++e) {
      out[event_ids_[e]] = event_values_[e];
    }
  }
}

std::uint64_t Trace::value_after(std::size_t index, SignalId id) const {
  // The signal's nearest event on the shorter side decides: the first one
  // after the tick held the value before it, the last one up to the tick
  // set it.
  const std::size_t split = tick_end(index);
  if (event_ids_.size() - split <= split) {
    for (std::size_t e = split; e < event_ids_.size(); ++e) {
      if (event_ids_[e] == id) return event_prev_[e];
    }
    return live_[id];
  }
  for (std::size_t e = split; e-- > 0;) {
    if (event_ids_[e] == id) return event_values_[e];
  }
  return 0;
}

Snapshot Trace::at_cycle(std::uint64_t cycle) const {
  const std::size_t index = index_of(cycle);
  Snapshot snap;
  snap.cycle = cycle;
  materialize(index, snap.values);
  return snap;
}

Snapshot Trace::operator[](std::size_t index) const {
  Snapshot snap;
  snap.cycle = cycles_[index];
  materialize(index, snap.values);
  return snap;
}

std::uint64_t Trace::value_at(std::uint64_t cycle, SignalId id) const {
  if (id >= db_->size()) throw_outside_schema(id);
  return value_after(index_of(cycle), id);
}

std::vector<SignalDelta> Trace::diff(std::uint64_t from,
                                     std::uint64_t to) const {
  const std::size_t a = index_of(from);
  const std::size_t b = index_of(to);
  if (b < a) throw std::runtime_error("trace diff: to-cycle before from-cycle");
  const std::size_t first = tick_end(a);
  const std::size_t last = tick_end(b);

  // The ids with an event in ticks (a, b], as a word bitset; each id's
  // rank among them is its slot in `out`, so the result comes out
  // ascending without a sort. One buffer holds the bitset and, after it,
  // each word's first rank.
  const std::size_t n_words = (db_->size() + 63) / 64;
  std::vector<std::uint64_t> scratch(2 * n_words, 0);
  std::uint64_t* const touched = scratch.data();
  std::uint64_t* const rank_base = scratch.data() + n_words;
  for (std::size_t e = first; e < last; ++e) {
    const SignalId id = event_ids_[e];
    touched[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    rank_base[w] = count;
    count += static_cast<std::size_t>(std::popcount(touched[w]));
  }
  const auto rank = [&](SignalId id) {
    const std::uint64_t below = (std::uint64_t{1} << (id & 63)) - 1;
    return rank_base[id >> 6] + static_cast<std::size_t>(std::popcount(
                                    touched[id >> 6] & below));
  };

  std::vector<SignalDelta> out(count);
  for (std::size_t w = 0, slot = 0; w < n_words; ++w) {
    for (std::uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
      out[slot++].id = static_cast<SignalId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  // Before: the first in-window event's previous value (a backward walk
  // leaves it last); after: the last in-window event's value.
  for (std::size_t e = last; e-- > first;) {
    out[rank(event_ids_[e])].before = event_prev_[e];
  }
  for (std::size_t e = first; e < last; ++e) {
    out[rank(event_ids_[e])].after = event_values_[e];
  }
  // A signal that changed and changed back is no difference.
  std::erase_if(out, [](const SignalDelta& d) { return d.before == d.after; });
  return out;
}

std::pair<std::size_t, std::size_t> Trace::window_events(
    std::uint64_t from, std::uint64_t to) const {
  // Recorded ticks with from < cycle <= to; the first tick never counts
  // (its events are the initial values, not transitions).
  const auto lo = std::upper_bound(cycles_.begin(), cycles_.end(), from);
  const auto hi = std::upper_bound(cycles_.begin(), cycles_.end(), to);
  const std::size_t first =
      std::max<std::size_t>(static_cast<std::size_t>(lo - cycles_.begin()), 1);
  const std::size_t end = static_cast<std::size_t>(hi - cycles_.begin());
  if (first >= end) return {0, 0};
  return {tick_begin(first), tick_end(end - 1)};
}

std::vector<std::uint32_t> Trace::change_counts(std::uint64_t from,
                                                std::uint64_t to) const {
  std::vector<std::uint32_t> counts(db_->size(), 0);
  const auto [first, last] = window_events(from, to);
  for (std::size_t e = first; e < last; ++e) ++counts[event_ids_[e]];
  return counts;
}

void Trace::changed_words(std::uint64_t from, std::uint64_t to,
                          std::vector<std::uint64_t>& words) const {
  words.assign((db_->size() + 63) / 64, 0);
  const auto [first, last] = window_events(from, to);
  for (std::size_t e = first; e < last; ++e) {
    const SignalId id = event_ids_[e];
    words[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
}

std::vector<bool> Trace::changed_mask(std::uint64_t from,
                                      std::uint64_t to) const {
  std::vector<std::uint64_t> words;
  changed_words(from, to, words);
  std::vector<bool> mask(db_->size());
  for (std::size_t id = 0; id < mask.size(); ++id) {
    mask[id] = util::word_bit(words, id);
  }
  return mask;
}

bool Trace::any_nonzero(SignalId id, std::uint64_t from,
                        std::uint64_t to) const {
  const std::size_t a = index_of(from);
  const auto hi = std::upper_bound(cycles_.begin(), cycles_.end(), to);
  const std::size_t end = static_cast<std::size_t>(hi - cycles_.begin());
  if (end <= a + 1) return false;  // no recorded tick in (from, to]
  // Ticks a+1 .. end-1. Each of the signal's events there holds its value
  // from its own tick on; the first one's previous value also held from
  // tick a+1 up to it, which is inside the window unless the event is in
  // tick a+1 itself.
  const std::size_t first = tick_end(a);
  const std::size_t last = tick_end(end - 1);
  const std::size_t second_tick = tick_end(a + 1);
  bool seen = false;
  for (std::size_t e = first; e < last; ++e) {
    if (event_ids_[e] != id) continue;
    if (!seen && e >= second_tick && event_prev_[e] != 0) return true;
    if (event_values_[e] != 0) return true;
    seen = true;
  }
  return !seen && value_after(a, id) != 0;
}

// ------------------------------------------------------------- DenseTrace --

const Snapshot& DenseTrace::at_cycle(std::uint64_t cycle) const {
  std::size_t lo = 0, hi = snaps_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (snaps_[mid].cycle < cycle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= snaps_.size() || snaps_[lo].cycle != cycle) {
    throw std::runtime_error("dense trace: no snapshot for cycle " +
                             std::to_string(cycle));
  }
  return snaps_[lo];
}

std::vector<std::uint32_t> DenseTrace::change_counts(std::uint64_t from,
                                                     std::uint64_t to) const {
  std::vector<std::uint32_t> counts(db_->size(), 0);
  for (std::size_t i = 1; i < snaps_.size(); ++i) {
    const std::uint64_t c = snaps_[i].cycle;
    if (c <= from || c > to) continue;  // transitions inside (from, to]
    const auto& prev = snaps_[i - 1].values;
    const auto& cur = snaps_[i].values;
    for (SignalId s = 0; s < counts.size(); ++s) {
      counts[s] += prev[s] != cur[s];
    }
  }
  return counts;
}

std::vector<bool> DenseTrace::changed_mask(std::uint64_t from,
                                           std::uint64_t to) const {
  const auto counts = change_counts(from, to);
  std::vector<bool> mask(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) mask[i] = counts[i] > 0;
  return mask;
}

std::size_t DenseTrace::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : snaps_) {
    bytes += sizeof(Snapshot) + s.values.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace specure::snapshot
