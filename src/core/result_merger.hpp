// Result merger — the single-threaded tail of the Online Phase pipeline
// (scheduler → simulation workers → result merger).
//
// The merger consumes WorkerResults strictly in iteration order and owns
// every piece of cross-iteration campaign state: the authoritative LP
// covered set, the merged code-coverage point set, vulnerability
// deduplication by structural leakage signature (dedup_key), the MST
// sample, and the per-iteration history. Because workers hand over order-independent facts and the
// merger applies them in a fixed order, a campaign's CampaignResult is
// bit-identical regardless of how many worker threads produced the
// results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign_worker.hpp"
#include "core/coverage_calc.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "core/vuln_detect.hpp"
#include "sim/coverage.hpp"
#include "util/atomic_bitset.hpp"

namespace specure::core {

enum class FeedbackMode : std::uint8_t {
  kLeakagePath,   ///< Specure's LP coverage (novel metric)
  kCodeCoverage,  ///< traditional coverage, the baseline in Fig. 2
};

struct IterationRecord {
  std::uint64_t iteration = 0;
  std::size_t covered_pdlc = 0;     ///< cumulative LP coverage
  std::size_t coverage_points = 0;  ///< cumulative code-coverage points
  std::size_t vulns_found = 0;      ///< cumulative distinct findings
  std::uint64_t cycles = 0;         ///< simulated cycles this iteration
};

struct CampaignResult {
  std::vector<IterationRecord> history;
  /// Distinct findings, deduplicated by structural leakage signature
  /// (dedup_key); two findings with the same kind+sink but e.g. disjoint
  /// taint paths are distinct entries. finding_key() is the coarse bucket.
  std::vector<VulnReport> vulns;
  /// First-detection iteration per dedup key (signature string; its
  /// prefix is the coarse finding key, so substring stops keep working).
  std::map<std::string, std::uint64_t> first_detection;
  std::vector<SpecWindow> mst_sample;
  std::size_t total_windows = 0;
  std::size_t mispredicted_windows = 0;
  std::size_t pdlc_total = 0;
  double seconds = 0;
};

/// Number of distinct coarse finding_key buckets among a result's vulns
/// (vulns.size() counts unique signatures; this counts kind+sink groups).
std::size_t coarse_bucket_count(const CampaignResult& result);

class ResultMerger {
 public:
  /// The merger only commits the workers' LP hits, so its covered set
  /// is sized from offline.pdlc.size() alone; `db` and `lp_policy` name
  /// the channel universe the workers probe and are not read here.
  ResultMerger(const OfflineResult& offline, const snapshot::SignalDb& db,
               FeedbackMode feedback, LpPolicy lp_policy,
               std::size_t mst_sample_rows);

  /// Apply one iteration's results. Must be called in iteration order.
  /// Returns true when the input was interesting (new coverage under the
  /// configured feedback metric, or a new finding) and should be fed back
  /// to the corpus.
  ///
  /// The by-ref form only moves out what the merged state keeps (the
  /// deduplicated reports); windows/lp_hits retain their
  /// buffers, so the caller can recycle `result` as the scratch shell
  /// for a later iteration (the pipelined executor's slot reuse).
  bool merge(WorkerResult& result);
  bool merge(WorkerResult&& result) { return merge(result); }

  /// The campaign state accumulated so far (live view, e.g. for stop
  /// predicates and progress reporting).
  const CampaignResult& result() const { return result_; }

  /// The authoritative LP covered bitmap (merger-thread view).
  const std::vector<bool>& lp_covered_mask() const {
    return lp_.covered_mask();
  }

  /// Atomic shadow of the covered bitmap, safe to read from workers
  /// while the merger keeps merging (the pipelined executor has no
  /// quiescent point). Monotonic and always a subset of the committed
  /// state, so worker probes that race with merges can only skip
  /// channels commit() would have filtered idempotently — the merged
  /// campaign result never depends on the interleaving.
  const util::AtomicBitset& lp_covered_shadow() const {
    return covered_shadow_;
  }

  /// The merged code-coverage accumulator (for campaign state capture).
  const sim::CoverageRecorder& code_coverage() const { return code_cov_; }

  /// Restore the merger to a previously captured campaign frontier:
  /// the accumulated result, the LP covered mask (covered_mask() at
  /// capture time, republished to the atomic shadow) and the merged
  /// code-coverage point mask. The next merge() continues exactly where
  /// the captured campaign left off. The result is taken by value and
  /// moved in: a resumed frontier is consumed, never copied.
  void restore(CampaignResult result, const std::vector<bool>& lp_mask,
               std::uint64_t coverage_mask, std::uint64_t toggle_bits);

  /// Move the finished result out; the merger is spent afterwards.
  CampaignResult take_result() { return std::move(result_); }

 private:
  FeedbackMode feedback_;
  std::size_t mst_sample_rows_;
  LpCoveredSet lp_;
  util::AtomicBitset covered_shadow_;
  sim::CoverageRecorder code_cov_;
  CampaignResult result_;
};

}  // namespace specure::core
