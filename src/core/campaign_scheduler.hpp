// Campaign scheduler — the job-producing end of the Online Phase pipeline
// (scheduler → simulation workers → result merger).
//
// The scheduler owns the Hardware Fuzzer and draws (iteration, program,
// derived_rng_seed) jobs from it. Corpus feedback routed back through
// feedback() as iterations merge is what gives the campaign its
// sliding-window generation contract (see session.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "fuzz/corpus.hpp"

namespace specure::core {

class CampaignScheduler {
 public:
  /// `total_iterations` bounds the campaign: batches are clipped so the
  /// scheduler never issues more than that many jobs in total.
  CampaignScheduler(const fuzz::FuzzerOptions& options,
                    std::uint64_t rng_seed, std::uint64_t total_iterations);

  /// Draw the next batch (at most `batch_size` jobs, fewer near the end).
  /// Empty result means the campaign budget is exhausted.
  std::vector<fuzz::FuzzJob> next_batch(std::size_t batch_size);

  /// Draw one job (the sliding-window executor's per-merge refill).
  /// False means the campaign budget is exhausted. Drawing n jobs this
  /// way consumes exactly the stream of one next_batch(n) call.
  bool next_job(fuzz::FuzzJob& out);

  /// Corpus feedback from the merger: the program run as `iteration` was
  /// interesting (new coverage or a finding). Takes effect for every batch
  /// drawn after this call.
  void feedback(const riscv::Program& program, std::uint64_t iteration);

  std::uint64_t issued() const { return issued_; }
  /// True once the campaign's iteration budget is fully issued.
  bool exhausted() const { return issued_ >= total_iterations_; }
  const fuzz::Fuzzer& fuzzer() const { return fuzzer_; }

  /// Campaign checkpoint/restore: the fuzzer state is the whole
  /// deterministic scheduler state (issued_ mirrors the fuzzer's
  /// iteration cursor).
  fuzz::FuzzerState save_state() const { return fuzzer_.save_state(); }
  void restore(const fuzz::FuzzerState& state) {
    fuzzer_.restore_state(state);
    issued_ = state.iteration;
  }

 private:
  fuzz::Fuzzer fuzzer_;
  std::uint64_t total_iterations_;
  std::uint64_t issued_ = 0;
};

}  // namespace specure::core
