#include "core/campaign_scheduler.hpp"

#include <algorithm>

namespace specure::core {

CampaignScheduler::CampaignScheduler(const fuzz::FuzzerOptions& options,
                                     std::uint64_t rng_seed,
                                     std::uint64_t total_iterations)
    : fuzzer_(options, rng_seed), total_iterations_(total_iterations) {}

std::vector<fuzz::FuzzJob> CampaignScheduler::next_batch(
    std::size_t batch_size) {
  const std::uint64_t remaining = total_iterations_ - issued_;
  const std::size_t count = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::size_t>(batch_size, 1),
                              remaining));
  if (count == 0) return {};
  issued_ += count;
  return fuzzer_.next_batch(count);
}

bool CampaignScheduler::next_job(fuzz::FuzzJob& out) {
  if (issued_ >= total_iterations_) return false;
  ++issued_;
  out = fuzzer_.next_job();
  return true;
}

void CampaignScheduler::feedback(const riscv::Program& program,
                                 std::uint64_t iteration) {
  fuzzer_.report_interesting(program, iteration);
}

}  // namespace specure::core
