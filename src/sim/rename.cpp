#include "sim/rename.hpp"

#include <algorithm>

namespace specure::sim {

RenameStage::RenameStage(const CoreConfig& cfg)
    : cfg_(cfg), prf_(cfg.phys_regs, 0), rev_(cfg.phys_regs, kUnmapped) {
  // Identity initial mapping: arch i -> phys i; the rest are free.
  for (unsigned i = 0; i < 32; ++i) maptable_[i] = static_cast<PhysReg>(i);
  for (unsigned p = cfg.phys_regs; p-- > 32;) {
    freelist_.push_back(static_cast<PhysReg>(p));
  }
  rebuild_rev();
}

void RenameStage::rebuild_rev() {
  std::fill(rev_.begin(), rev_.end(), kUnmapped);
  for (unsigned i = 0; i < 32; ++i) {
    rev_[maptable_[i]] = static_cast<std::uint8_t>(i);
  }
}

bool RenameStage::allocate(unsigned arch, PhysReg& new_phys,
                           PhysReg& old_phys) {
  if (arch == 0) {  // x0 is hardwired zero; no rename.
    new_phys = 0;
    old_phys = 0;
    return true;
  }
  if (freelist_.empty()) return false;
  new_phys = freelist_.back();
  freelist_.pop_back();
  old_phys = maptable_[arch];
  // The architectural register keeps its old value until the producer
  // writes back: seed the new physical register with the old contents so
  // the map-table view never exposes stale data from a previous
  // allocation.
  prf_[new_phys] = prf_[old_phys];
  maptable_[arch] = new_phys;
  rev_[old_phys] = kUnmapped;
  rev_[new_phys] = static_cast<std::uint8_t>(arch);
  if (dirty_ != nullptr) {
    dirty_->mark(maptable_base_ + arch);
    dirty_->mark(freecount_id_);
    dirty_->mark(prf_base_ + new_phys);
    dirty_->mark(rfx_base_ + arch);  // same value through a new phys reg
  }
  return true;
}

void RenameStage::checkpoint(unsigned rob_index) {
  checkpoints_[rob_index] = maptable_;
}

void RenameStage::rollback(unsigned rob_index, bool suppress_restore) {
  auto it = checkpoints_.find(rob_index);
  if (it != checkpoints_.end()) {
    if (!suppress_restore) {
      maptable_ = it->second;
      rebuild_rev();
      if (dirty_ != nullptr) {
        // Any subset of the 32 mappings may have reverted, and with them
        // the derived architectural views. Conservative is exact.
        dirty_->mark_range(maptable_base_, 32);
        dirty_->mark_range(rfx_base_, 32);
      }
    }
    // Drop this and all younger checkpoints. Checkpoint keys are ROB
    // indices of still-unresolved branches; "younger" here is handled by
    // the core, which rolls back the youngest mispredicted branch first
    // and squashes the rest individually.
    checkpoints_.erase(it);
  }
}

void RenameStage::release_checkpoint(unsigned rob_index) {
  checkpoints_.erase(rob_index);
}

void RenameStage::commit_free(PhysReg old_phys) {
  // Initial identity mappings (phys 1..31) are freed too once their arch
  // register is renamed and committed; phys 0 is the constant zero.
  if (old_phys != 0) {
    freelist_.push_back(old_phys);
    if (dirty_ != nullptr) dirty_->mark(freecount_id_);
  }
}

void RenameStage::squash_free(PhysReg new_phys) {
  if (new_phys != 0) {
    freelist_.push_back(new_phys);
    if (dirty_ != nullptr) dirty_->mark(freecount_id_);
  }
}

}  // namespace specure::sim
