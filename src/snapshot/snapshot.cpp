#include "snapshot/snapshot.hpp"

#include <algorithm>
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
  // The previous tick is now complete; keyframe it on the interval grid so
  // keyframes_[k] always holds the state after tick k * kKeyframeInterval.
  const std::size_t done = cycles_.size();
  if (done >= 1 && (done - 1) % kKeyframeInterval == 0) {
    keyframes_.insert(keyframes_.end(), live_.begin(), live_.end());
  }
  cycles_.push_back(cycle);
  offsets_.push_back(event_ids_.size());
}

unsigned Trace::record(SignalId id, std::uint64_t value) {
  if (cycles_.empty()) {
    throw std::runtime_error("trace: record() before begin_cycle()");
  }
  if (id >= live_.size()) {
    throw std::runtime_error("trace: signal id " + std::to_string(id) +
                             " outside the schema (" +
                             std::to_string(live_.size()) + " signals)");
  }
  const std::size_t tick_start = offsets_.back();
  if (event_ids_.size() > tick_start && id <= event_ids_.back()) {
    throw std::runtime_error(
        "trace: record() ids must be strictly ascending within a tick");
  }
  const std::uint64_t prev = live_[id];
  if (value == prev) return 0;
  event_ids_.push_back(id);
  event_values_.push_back(value);
  live_[id] = value;
  return util::toggled_bits(prev, value);
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
  event_values_.clear();
  live_.clear();
  keyframes_.clear();
  contiguous_ = true;
}

Trace Trace::fork_at(std::uint64_t cycle) const {
  Trace out(db_);
  fork_into(cycle, out);
  return out;
}

void Trace::fork_into(std::uint64_t cycle, Trace& out) const {
  const std::size_t t = index_of(cycle);  // throws naming the covered range
  out.db_ = db_;
  out.cycles_.assign(cycles_.begin(), cycles_.begin() + t + 1);
  out.offsets_.assign(offsets_.begin(), offsets_.begin() + t + 1);
  const std::size_t events = tick_end(t);
  out.event_ids_.assign(event_ids_.begin(), event_ids_.begin() + events);
  out.event_values_.assign(event_values_.begin(),
                           event_values_.begin() + events);
  materialize(t, out.live_);
  // A cold recording of ticks 0..t would have keyframed the state after
  // tick m * kKeyframeInterval for every m with m * kKeyframeInterval
  // <= t - 1 (the keyframe is pushed when the *next* tick begins).
  const std::size_t keyframes = t == 0 ? 0 : (t - 1) / kKeyframeInterval + 1;
  out.keyframes_.assign(
      keyframes_.begin(),
      keyframes_.begin() +
          static_cast<std::ptrdiff_t>(keyframes * db_->size()));
  out.contiguous_ = cycles_[t] - cycles_[0] == t;
}

std::size_t Trace::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += event_ids_.size() * sizeof(SignalId);
  bytes += event_values_.size() * sizeof(std::uint64_t);
  bytes += cycles_.size() * sizeof(std::uint64_t);
  bytes += offsets_.size() * sizeof(std::size_t);
  bytes += live_.size() * sizeof(std::uint64_t);
  bytes += keyframes_.size() * sizeof(std::uint64_t);
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

std::size_t Trace::seed_from_keyframe(std::size_t index,
                                      std::vector<std::uint64_t>& out) const {
  const std::size_t n = db_->size();
  std::size_t k = index / kKeyframeInterval;
  const std::size_t frames = keyframe_count();
  if (k >= frames && frames > 0) k = frames - 1;
  if (k < frames) {
    out.assign(keyframes_.begin() + static_cast<std::ptrdiff_t>(k * n),
               keyframes_.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    return k * kKeyframeInterval + 1;
  }
  out.assign(n, 0);
  return 0;
}

void Trace::materialize(std::size_t index,
                        std::vector<std::uint64_t>& out) const {
  if (index + 1 == cycles_.size()) {  // the common "last tick" fast path
    out = live_;
    return;
  }
  std::size_t tick = seed_from_keyframe(index, out);
  for (; tick <= index; ++tick) {
    for (std::size_t e = tick_begin(tick); e < tick_end(tick); ++e) {
      out[event_ids_[e]] = event_values_[e];
    }
  }
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
  const std::size_t index = index_of(cycle);
  if (index + 1 == cycles_.size()) return live_[id];
  std::size_t k = index / kKeyframeInterval;
  const std::size_t frames = keyframe_count();
  if (k >= frames && frames > 0) k = frames - 1;
  std::uint64_t v = 0;
  std::size_t tick = 0;
  if (k < frames) {
    v = keyframes_[k * db_->size() + id];
    tick = k * kKeyframeInterval + 1;
  }
  for (; tick <= index; ++tick) {
    for (std::size_t e = tick_begin(tick); e < tick_end(tick); ++e) {
      if (event_ids_[e] == id) v = event_values_[e];
    }
  }
  return v;
}

std::vector<SignalDelta> Trace::diff(std::uint64_t from,
                                     std::uint64_t to) const {
  const std::size_t a = index_of(from);
  const std::size_t b = index_of(to);
  if (b < a) throw std::runtime_error("trace diff: to-cycle before from-cycle");
  std::vector<std::uint64_t> before;
  materialize(a, before);

  // Signals touched by any event in ticks (a, b] are the only diff
  // candidates; a signal that changed and changed back is filtered by the
  // value comparison below.
  std::vector<SignalId> touched;
  for (std::size_t tick = a + 1; tick <= b; ++tick) {
    touched.insert(touched.end(), event_ids_.begin() + tick_begin(tick),
                   event_ids_.begin() + tick_end(tick));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  std::vector<std::uint64_t> after;
  materialize(b, after);
  std::vector<SignalDelta> out;
  for (const SignalId id : touched) {
    if (before[id] != after[id]) out.push_back({id, before[id], after[id]});
  }
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
  std::uint64_t v = value_at(from, id);
  auto hi = std::upper_bound(cycles_.begin(), cycles_.end(), to);
  const std::size_t end = static_cast<std::size_t>(hi - cycles_.begin());
  for (std::size_t tick = a + 1; tick < end; ++tick) {
    for (std::size_t e = tick_begin(tick); e < tick_end(tick); ++e) {
      if (event_ids_[e] == id) v = event_values_[e];
    }
    if (v != 0) return true;
  }
  return false;
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
