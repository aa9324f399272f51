// Coverage Calculator — §3.2: the novel Leakage Path (LP) coverage metric.
//
// LP coverage counts, per PDLC, whether the channel's signals toggled
// inside a speculative window — guiding the fuzzer toward inputs that
// exercise potential leakage channels *while speculating*, instead of
// generic code coverage. Two covering policies are provided (DESIGN.md
// D1): kAllSignals (every signal on the witness path toggled within one
// window) and kEndpoints (source and sink toggled within one window).
//
// The accounting is split by who does it: each campaign worker probes
// its own runs with an LpCoverageMap (the channels indexed by signal),
// and the single-threaded merger commits the hits into an LpCoveredSet
// (the covered bitmap alone).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/mst.hpp"
#include "ift/pdlc.hpp"
#include "snapshot/snapshot.hpp"
#include "util/atomic_bitset.hpp"

namespace specure::core {

enum class LpPolicy : std::uint8_t { kAllSignals, kEndpoints };

/// The covered PDLC channels of a campaign and nothing else — what the
/// result merger commits worker hits into. It is sized by the channel
/// count alone (offline.pdlc.size()), so building one resolves no names.
class LpCoveredSet {
 public:
  explicit LpCoveredSet(std::size_t channels) : covered_(channels, false) {}

  /// Mark one channel covered; true when it was not covered before.
  bool insert(std::size_t channel) {
    if (covered_[channel]) return false;
    covered_[channel] = true;
    ++covered_count_;
    return true;
  }

  /// Mark probed channels covered; returns the number newly covered.
  /// Idempotent: already-covered channels count zero.
  std::size_t commit(const std::vector<std::size_t>& channels) {
    std::size_t fresh = 0;
    for (const std::size_t c : channels) fresh += insert(c);
    return fresh;
  }

  std::size_t covered() const { return covered_count_; }
  std::size_t total() const { return covered_.size(); }
  bool is_covered(std::size_t channel) const { return covered_[channel]; }
  const std::vector<bool>& covered_mask() const { return covered_; }

  /// Overwrite the covered set from a previously saved covered_mask()
  /// (campaign state restore). The mask must come from the same channel
  /// universe — i.e. the same offline result.
  void restore_covered(const std::vector<bool>& mask) {
    if (mask.size() != covered_.size()) {
      throw std::logic_error("LP coverage restore: channel count mismatch");
    }
    covered_ = mask;
    covered_count_ = 0;
    for (const bool c : covered_) covered_count_ += c;
  }

 private:
  std::vector<bool> covered_;
  std::size_t covered_count_ = 0;
};

/// The probing side: every channel's path resolved to snapshot signal ids
/// (policy-dependent) and indexed by signal, plus the covered set the
/// scalar update() accumulates into.
class LpCoverageMap {
 public:
  LpCoverageMap(const ift::Ifg& ifg, const ift::PdlcList& pdlc,
                const snapshot::SignalDb& db,
                LpPolicy policy = LpPolicy::kAllSignals);

  /// Account one run: returns the number of *newly* covered channels.
  /// The scalar reference: every window tests every channel against the
  /// window's change mask. probe() + LpCoveredSet::commit() must agree
  /// with it exactly (tests/lp_probe_test.cpp); the DenseTrace overload
  /// shares no window-walk code with probe() at all.
  std::size_t update(const snapshot::Trace& trace,
                     const std::vector<SpecWindow>& windows);
  std::size_t update(const snapshot::DenseTrace& trace,
                     const std::vector<SpecWindow>& windows);

  /// The worker half of update(): the channels this run exercised (all
  /// path signals toggled inside one speculative window), ascending.
  /// The merger applies them with LpCoveredSet::commit().
  ///
  /// Cost follows what changed, not the channel count: each window's
  /// change set is filled from its trace events into a reusable word
  /// bitset, a window whose change set equals the previous window's is
  /// skipped (it cannot add a hit), and only the channels watching a
  /// changed signal are tested.
  ///
  /// `already_covered`, when given, is the merger's atomic covered
  /// shadow: channels set there are skipped, so probes stay cheap as
  /// coverage saturates. The merger may update the shadow concurrently
  /// (pipelined executor) — a stale read just re-reports a channel
  /// commit() filters idempotently, so results never depend on the
  /// interleaving.
  ///
  /// probe() reuses scratch buffers held by the map, so one map serves
  /// one thread at a time (each campaign worker owns its own). The
  /// out-param overload also reuses the hit vector's capacity.
  std::vector<std::size_t> probe(
      const snapshot::Trace& trace,
      const std::vector<SpecWindow>& windows,
      const util::AtomicBitset* already_covered = nullptr) const;
  void probe(const snapshot::Trace& trace,
             const std::vector<SpecWindow>& windows,
             const util::AtomicBitset* already_covered,
             std::vector<std::size_t>& out) const;

  /// What update() has covered so far.
  std::size_t covered() const { return covered_.covered(); }
  const std::vector<bool>& covered_mask() const {
    return covered_.covered_mask();
  }
  std::size_t total() const { return covered_.total(); }
  /// Reset update()'s covered set to a saved covered_mask().
  void restore_covered(const std::vector<bool>& mask) {
    covered_.restore_covered(mask);
  }

 private:
  template <typename MaskSource>
  std::size_t update_impl(const MaskSource& source,
                          const std::vector<SpecWindow>& windows);

  /// Channel c's signal ids, sorted and unique; empty when no node of
  /// its path is a recorded signal (such a channel is never covered).
  std::span<const snapshot::SignalId> signals_of(std::size_t c) const {
    return {signals_.data() + signal_begin_[c],
            signal_begin_[c + 1] - signal_begin_[c]};
  }

  // Both indexes are CSR ("compressed sparse row"): one offsets array
  // with an entry per row plus an end entry, and one flat values array.
  std::vector<std::uint32_t> signal_begin_;  ///< channel -> signals_
  std::vector<snapshot::SignalId> signals_;
  /// The watch list, by signal id: each channel with signals is filed
  /// once, under its least-shared signal (the one the fewest channels
  /// use; lowest id on ties), in ascending channel order. A window can
  /// only hit a channel if it changed that signal.
  std::vector<std::uint32_t> watch_begin_;  ///< signal -> watchers_
  std::vector<std::uint32_t> watchers_;
  LpCoveredSet covered_;

  /// probe() scratch, kept so steady-state probes allocate nothing.
  struct ProbeScratch {
    std::vector<std::uint64_t> changed;   ///< this window's change set
    std::vector<std::uint64_t> previous;  ///< the last probed window's
    std::vector<std::uint64_t> hit;       ///< channels this run hit
  };
  mutable ProbeScratch scratch_;
};

}  // namespace specure::core
