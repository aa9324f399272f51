#include "core/result_merger.hpp"

#include <set>
#include <utility>

namespace specure::core {

std::size_t coarse_bucket_count(const CampaignResult& result) {
  std::set<std::string> buckets;
  for (const VulnReport& v : result.vulns) buckets.insert(finding_key(v));
  return buckets.size();
}

ResultMerger::ResultMerger(const OfflineResult& offline,
                           const snapshot::SignalDb& /*db*/,
                           FeedbackMode feedback, LpPolicy /*lp_policy*/,
                           std::size_t mst_sample_rows)
    : feedback_(feedback),
      mst_sample_rows_(mst_sample_rows),
      lp_(offline.pdlc.size()),
      covered_shadow_(offline.pdlc.size()) {
  result_.pdlc_total = offline.pdlc.size();
}

void ResultMerger::restore(CampaignResult result,
                           const std::vector<bool>& lp_mask,
                           std::uint64_t coverage_mask,
                           std::uint64_t toggle_bits) {
  result_ = std::move(result);
  lp_.restore_covered(lp_mask);
  for (std::size_t c = 0; c < lp_mask.size(); ++c) {
    if (lp_mask[c]) covered_shadow_.set(c);
  }
  code_cov_.restore(coverage_mask, toggle_bits);
}

bool ResultMerger::merge(WorkerResult& result) {
  result_.total_windows += result.windows.size();
  for (const auto& w : result.windows) {
    result_.mispredicted_windows += w.mispredicted;
    if (result_.mst_sample.size() < mst_sample_rows_ && w.mispredicted) {
      result_.mst_sample.push_back(w);
    }
  }

  const std::size_t lp_new = lp_.commit(result.lp_hits);
  // Publish the commits to the atomic shadow workers read concurrently
  // (fetch_or makes re-publishing already-set channels free).
  for (const std::size_t c : result.lp_hits) covered_shadow_.set(c);
  const std::size_t cov_new = code_cov_.merge(result.coverage);

  // Vulnerability detection counts regardless of the guidance mode.
  // Deduplication is by structural leakage signature (dedup_key), so
  // same-sink findings with different leak mechanisms both survive.
  bool new_finding = false;
  for (auto& report : result.reports) {
    const std::string key = dedup_key(report);
    if (result_.first_detection.emplace(key, result.iteration).second) {
      result_.vulns.push_back(std::move(report));
      new_finding = true;
    }
  }

  IterationRecord rec;
  rec.iteration = result.iteration;
  rec.covered_pdlc = lp_.covered();
  rec.coverage_points = code_cov_.point_count();
  rec.vulns_found = result_.vulns.size();
  rec.cycles = result.cycles;
  result_.history.push_back(rec);

  // Feedback: the configured coverage metric guides corpus growth; a
  // vulnerability always counts as interesting (Figure 1's
  // "Vulnerability Feedback" arrow).
  return new_finding || (feedback_ == FeedbackMode::kLeakagePath
                             ? lp_new > 0
                             : cov_new > 0);
}

}  // namespace specure::core
