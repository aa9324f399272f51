#include "core/coverage_calc.hpp"

#include <algorithm>
#include <bit>

#include "util/bits.hpp"

namespace specure::core {

LpCoverageMap::LpCoverageMap(const ift::Ifg& ifg, const ift::PdlcList& pdlc,
                             const snapshot::SignalDb& db, LpPolicy policy)
    : covered_(pdlc.size()) {
  // One name lookup per IFG node: channel paths share nodes heavily, so
  // this is a fraction of one lookup per path step.
  std::vector<snapshot::SignalId> node_signal(ifg.node_count());
  for (ift::NodeId n = 0; n < node_signal.size(); ++n) {
    node_signal[n] = db.find(ifg.node(n).name);
  }

  signal_begin_.reserve(pdlc.size() + 1);
  signal_begin_.push_back(0);
  for (const ift::Pdlc& ch : pdlc.channels()) {
    const std::size_t begin = signals_.size();
    const auto push = [&](ift::NodeId n) {
      if (node_signal[n] != snapshot::kInvalidSignal) {
        signals_.push_back(node_signal[n]);
      }
    };
    if (policy == LpPolicy::kEndpoints) {
      push(ch.source);
      push(ch.sink);
    } else {
      for (const ift::NodeId n : ch.path) push(n);
    }
    // "Every signal toggled" ignores order and repeats.
    const auto first = signals_.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, signals_.end());
    signals_.erase(std::unique(first, signals_.end()), signals_.end());
    signal_begin_.push_back(static_cast<std::uint32_t>(signals_.size()));
  }

  // The watch list, built by counting sort. Any of a channel's signals
  // is a sound key (a hit needs all of them to change); the least-shared
  // one keeps the lists a window walks short.
  std::vector<std::uint32_t> sharing(db.size(), 0);
  for (const snapshot::SignalId s : signals_) ++sharing[s];
  std::vector<snapshot::SignalId> key(pdlc.size(), snapshot::kInvalidSignal);
  watch_begin_.assign(db.size() + 1, 0);
  for (std::size_t c = 0; c < key.size(); ++c) {
    for (const snapshot::SignalId s : signals_of(c)) {
      if (key[c] == snapshot::kInvalidSignal || sharing[s] < sharing[key[c]]) {
        key[c] = s;
      }
    }
    if (key[c] != snapshot::kInvalidSignal) ++watch_begin_[key[c] + 1];
  }
  for (std::size_t s = 0; s < db.size(); ++s) {
    watch_begin_[s + 1] += watch_begin_[s];
  }
  watchers_.resize(watch_begin_.back());
  std::vector<std::uint32_t> next(watch_begin_.begin(), watch_begin_.end() - 1);
  for (std::size_t c = 0; c < key.size(); ++c) {
    if (key[c] != snapshot::kInvalidSignal) {
      watchers_[next[key[c]]++] = static_cast<std::uint32_t>(c);
    }
  }
}

template <typename MaskSource>
std::size_t LpCoverageMap::update_impl(const MaskSource& source,
                                       const std::vector<SpecWindow>& windows) {
  std::size_t fresh = 0;
  for (const auto& w : windows) {
    // Per-window change mask; the paper counts PDLC signal toggles inside
    // the speculative window.
    const auto changed = source.changed_mask(w.start_cycle, w.end_cycle);
    for (std::size_t c = 0; c < total(); ++c) {
      const auto sigs = signals_of(c);
      if (covered_.is_covered(c) || sigs.empty()) continue;
      bool all = true;
      for (const auto sid : sigs) {
        if (!changed[sid]) {
          all = false;
          break;
        }
      }
      if (all) fresh += covered_.insert(c);
    }
  }
  return fresh;
}

std::size_t LpCoverageMap::update(const snapshot::Trace& trace,
                                  const std::vector<SpecWindow>& windows) {
  return update_impl(trace, windows);
}

std::size_t LpCoverageMap::update(const snapshot::DenseTrace& trace,
                                  const std::vector<SpecWindow>& windows) {
  return update_impl(trace, windows);
}

std::vector<std::size_t> LpCoverageMap::probe(
    const snapshot::Trace& trace,
    const std::vector<SpecWindow>& windows,
    const util::AtomicBitset* already_covered) const {
  std::vector<std::size_t> out;
  probe(trace, windows, already_covered, out);
  return out;
}

void LpCoverageMap::probe(const snapshot::Trace& trace,
                          const std::vector<SpecWindow>& windows,
                          const util::AtomicBitset* already_covered,
                          std::vector<std::size_t>& out) const {
  out.clear();
  ProbeScratch& s = scratch_;
  s.hit.assign((total() + 63) / 64, 0);
  s.previous.clear();  // never equal to a filled change set
  for (const SpecWindow& w : windows) {
    trace.changed_words(w.start_cycle, w.end_cycle, s.changed);
    // A hit needs only the change set, and what is already hit or
    // covered only grows, so a window repeating the previous window's
    // change set (a looping branch) cannot add one.
    if (s.changed == s.previous) continue;
    for (std::size_t word = 0; word < s.changed.size(); ++word) {
      for (std::uint64_t bits = s.changed[word]; bits != 0;
           bits &= bits - 1) {
        const std::size_t sig =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        for (std::uint32_t i = watch_begin_[sig]; i < watch_begin_[sig + 1];
             ++i) {
          const std::uint32_t c = watchers_[i];
          if (util::word_bit(s.hit, c)) continue;
          if (already_covered != nullptr && already_covered->test(c)) continue;
          const auto sigs = signals_of(c);
          if (std::all_of(sigs.begin(), sigs.end(), [&](snapshot::SignalId id) {
                return util::word_bit(s.changed, id);
              })) {
            s.hit[c >> 6] |= std::uint64_t{1} << (c & 63);
          }
        }
      }
    }
    std::swap(s.changed, s.previous);
  }
  for (std::size_t word = 0; word < s.hit.size(); ++word) {
    for (std::uint64_t bits = s.hit[word]; bits != 0; bits &= bits - 1) {
      out.push_back(word * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace specure::core
