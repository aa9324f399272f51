// Campaign scheduler — the job-producing end of the Online Phase pipeline
// (scheduler → simulation workers → result merger).
//
// The scheduler owns the Hardware Fuzzer and draws (iteration, program)
// jobs from it. Corpus feedback routed back through feedback() as
// iterations merge is what gives the campaign its sliding-window
// generation contract (see session.hpp).
#pragma once

#include <cstdint>
#include <utility>

#include "fuzz/corpus.hpp"

namespace specure::core {

class CampaignScheduler {
 public:
  /// `total_iterations` bounds the campaign: the scheduler never issues
  /// more than that many jobs in total.
  CampaignScheduler(const fuzz::FuzzerOptions& options,
                    std::uint64_t rng_seed, std::uint64_t total_iterations);

  /// Draw one job (the merge strand's window fill and per-merge refill).
  /// False means the campaign budget is exhausted.
  bool next_job(fuzz::FuzzJob& out);

  /// Corpus feedback from the merger: the program run as `iteration` was
  /// interesting (new coverage or a finding). Takes effect for every job
  /// drawn after this call.
  void feedback(const riscv::Program& program, std::uint64_t iteration);

  std::uint64_t issued() const { return issued_; }
  /// True once the campaign's iteration budget is fully issued.
  bool exhausted() const { return issued_ >= total_iterations_; }
  const fuzz::Fuzzer& fuzzer() const { return fuzzer_; }

  /// Campaign checkpoint/restore: the fuzzer state is the whole
  /// deterministic scheduler state (issued_ mirrors the fuzzer's
  /// iteration cursor). restore() takes the state by value and moves the
  /// corpus in.
  fuzz::FuzzerState save_state() const { return fuzzer_.save_state(); }
  void restore(fuzz::FuzzerState state) {
    issued_ = state.iteration;
    fuzzer_.restore_state(std::move(state));
  }

 private:
  fuzz::Fuzzer fuzzer_;
  std::uint64_t total_iterations_;
  std::uint64_t issued_ = 0;
};

}  // namespace specure::core
