// Branch prediction unit: gshare direction predictor (global history XOR
// PC indexing a 2-bit counter table), a direct-mapped BTB for targets, and
// a return address stack. All predictor state is microarchitectural and is
// deliberately NOT rolled back on misprediction — updates from wrong-path
// training persist, which is the Spectre v2 (branch target injection)
// surface.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/dirty_set.hpp"

namespace specure::sim {

struct Prediction {
  bool taken = false;
  bool btb_hit = false;
  std::uint64_t target = 0;
};

class BranchPredictor {
 public:
  explicit BranchPredictor(const CoreConfig& cfg);

  /// Attach the core's dirty set (capture engine contract). The PHT is
  /// exposed to snapshots as packed words of 32 2-bit counters, so a
  /// counter update dirties word `pht_index / 32`; BTB entries interleave
  /// as (tag_i, target_i) pairs at `btb_base + 2 * i`.
  void bind_dirty(DirtySet* dirty, std::size_t ghist_id, std::size_t pht_base,
                  std::size_t btb_base, std::size_t ras_base,
                  std::size_t ras_top_id) {
    dirty_ = dirty;
    ghist_id_ = ghist_id;
    pht_base_ = pht_base;
    btb_base_ = btb_base;
    ras_base_ = ras_base;
    ras_top_id_ = ras_top_id;
  }

  /// Predict a conditional branch at `pc`.
  Prediction predict_branch(std::uint64_t pc) const;

  /// Predict an indirect jump (JALR) target; btb_hit=false means no
  /// prediction (fall back to stall-until-resolve semantics modeled as
  /// predicting pc+4).
  Prediction predict_indirect(std::uint64_t pc) const;

  /// Update on branch resolution.
  void update_branch(std::uint64_t pc, bool taken, std::uint64_t target);
  /// Update on indirect-jump resolution.
  void update_indirect(std::uint64_t pc, std::uint64_t target);

  /// Return address stack.
  void ras_push(std::uint64_t return_pc);
  std::uint64_t ras_pop();  ///< 0 when empty

  // State exposure for snapshots / IFG.
  std::uint64_t ghist() const { return ghist_; }
  const std::vector<std::uint8_t>& pht() const { return pht_; }
  const std::vector<std::uint64_t>& btb_tags() const { return btb_tag_; }
  const std::vector<std::uint64_t>& btb_targets() const { return btb_target_; }
  const std::vector<std::uint64_t>& ras() const { return ras_; }
  unsigned ras_top() const { return ras_top_; }

 private:
  std::size_t pht_index(std::uint64_t pc) const;
  std::size_t btb_index(std::uint64_t pc) const;

  DirtySet* dirty_ = nullptr;
  std::size_t ghist_id_ = 0;
  std::size_t pht_base_ = 0;
  std::size_t btb_base_ = 0;
  std::size_t ras_base_ = 0;
  std::size_t ras_top_id_ = 0;

  const CoreConfig& cfg_;
  std::uint64_t ghist_ = 0;
  std::vector<std::uint8_t> pht_;       ///< 2-bit counters
  std::vector<std::uint64_t> btb_tag_;  ///< 0 = invalid
  std::vector<std::uint64_t> btb_target_;
  std::vector<std::uint64_t> ras_;
  unsigned ras_top_ = 0;  ///< number of valid entries
};

}  // namespace specure::sim
