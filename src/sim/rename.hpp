// Rename stage: architectural-to-physical map table, free list and the
// physical register file, with per-branch checkpoints of the map table
// (one per ROB slot).
//
// On a misprediction the checkpoint is restored — unless the Zenbleed
// emulation is active (zenbleed_en CSR non-zero), in which case the
// rollback is suppressed exactly as the paper describes ("manipulating the
// maptable rollback mechanism to prevent the rollback of Register File
// changes"), so wrong-path register writes stay architecturally visible.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/dirty_set.hpp"

namespace specure::sim {

using PhysReg = std::uint16_t;

class RenameStage {
 public:
  explicit RenameStage(const CoreConfig& cfg);

  /// Attach the core's dirty set (capture engine contract): every mutation
  /// below marks the flat signal ids it touches. The maptable/freecount/
  /// prf bases are the block offsets from sim::signal_layout; `rfx_base`
  /// is the architectural-view block, marked whenever a mutation can move
  /// an arch register's value (the view is derived: rf.x[i] =
  /// prf[maptable[i]], so both a remap and a PRF write dirty it).
  void bind_dirty(DirtySet* dirty, std::size_t maptable_base,
                  std::size_t freecount_id, std::size_t prf_base,
                  std::size_t rfx_base) {
    dirty_ = dirty;
    maptable_base_ = maptable_base;
    freecount_id_ = freecount_id;
    prf_base_ = prf_base;
    rfx_base_ = rfx_base;
  }

  /// Current physical register holding architectural register `arch`.
  PhysReg map(unsigned arch) const { return maptable_[arch]; }

  /// Allocate a new physical destination for `arch` (x0 never renames).
  /// Returns false if the free list is exhausted (caller must stall).
  /// `old_phys` receives the previous mapping (to free at commit).
  bool allocate(unsigned arch, PhysReg& new_phys, PhysReg& old_phys);

  /// Checkpoint the map table into the slot of the branch at ROB index
  /// `rob_index`. A branch retires only after it resolves, so its slot
  /// (and checkpoint) cannot be reused while the branch may still roll
  /// back; a slot needs no freeing.
  void checkpoint(unsigned rob_index);

  /// Misprediction rollback: restore the checkpoint taken at `rob_index`.
  /// The core squashes the younger entries itself. When
  /// `suppress_restore` (Zenbleed) the map table is left as-is.
  void rollback(unsigned rob_index, bool suppress_restore);

  /// Commit an instruction that renamed `old_phys` away: the old physical
  /// register is returned to the free list.
  void commit_free(PhysReg old_phys);

  /// Squash an instruction: its freshly allocated register returns to the
  /// free list (skipped under Zenbleed suppression, where the allocation
  /// escapes — the paper's "deallocate ... can be allocated by the victim"
  /// race is modeled as a leaked register).
  void squash_free(PhysReg new_phys);

  // Physical register file.
  std::uint64_t prf(PhysReg p) const { return prf_[p]; }
  void prf_write(PhysReg p, std::uint64_t value) {
    prf_[p] = value;
    if (dirty_ != nullptr) {
      dirty_->mark(prf_base_ + p);
      // A write to a currently-mapped physical register moves the
      // architectural view of its arch register.
      if (rev_[p] != kUnmapped) dirty_->mark(rfx_base_ + rev_[p]);
    }
  }

  /// Architectural view: value of arch register i through the map table.
  std::uint64_t arch_value(unsigned arch) const {
    return arch == 0 ? 0 : prf_[maptable_[arch]];
  }

  // Snapshot accessors.
  std::uint64_t maptable_raw(unsigned arch) const { return maptable_[arch]; }
  std::size_t free_count() const { return freelist_.size(); }
  unsigned phys_count() const { return cfg_.phys_regs; }

 private:
  static constexpr std::uint8_t kUnmapped = 0xff;

  /// Rebuild the phys->arch reverse map from the map table (after a
  /// rollback restore).
  void rebuild_rev();

  const CoreConfig& cfg_;
  std::array<PhysReg, 32> maptable_{};
  std::vector<PhysReg> freelist_;
  std::vector<std::uint64_t> prf_;
  std::vector<std::array<PhysReg, 32>> checkpoints_;  ///< one per ROB slot

  // Dirty-set wiring (capture engine): null until bind_dirty.
  DirtySet* dirty_ = nullptr;
  std::size_t maptable_base_ = 0;
  std::size_t freecount_id_ = 0;
  std::size_t prf_base_ = 0;
  std::size_t rfx_base_ = 0;
  /// Arch register currently mapped to each physical register (kUnmapped
  /// when none) — lets prf_write dirty the derived rf.x view in O(1).
  std::vector<std::uint8_t> rev_;
};

}  // namespace specure::sim
