#include "core/campaign_scheduler.hpp"

namespace specure::core {

CampaignScheduler::CampaignScheduler(const fuzz::FuzzerOptions& options,
                                     std::uint64_t rng_seed,
                                     std::uint64_t total_iterations)
    : fuzzer_(options, rng_seed), total_iterations_(total_iterations) {}

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
