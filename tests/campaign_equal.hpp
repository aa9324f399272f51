// The differential tests' one notion of "the same campaign": two
// CampaignResults agree field by field — per-iteration history, every
// finding with its program, first detections, the MST sample and the
// window totals. Only wall-clock `seconds` may differ. Used wherever the
// determinism contract is pinned (worker counts, executors,
// observability on/off, resume).
#pragma once

#include <gtest/gtest.h>

#include "core/result_merger.hpp"
#include "core/vuln_detect.hpp"

namespace specure::core {

inline void expect_identical(const CampaignResult& a,
                             const CampaignResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iteration, b.history[i].iteration);
    EXPECT_EQ(a.history[i].covered_pdlc, b.history[i].covered_pdlc);
    EXPECT_EQ(a.history[i].coverage_points, b.history[i].coverage_points);
    EXPECT_EQ(a.history[i].vulns_found, b.history[i].vulns_found);
    EXPECT_EQ(a.history[i].cycles, b.history[i].cycles);
  }
  ASSERT_EQ(a.vulns.size(), b.vulns.size());
  for (std::size_t i = 0; i < a.vulns.size(); ++i) {
    EXPECT_EQ(finding_key(a.vulns[i]), finding_key(b.vulns[i]));
    EXPECT_EQ(a.vulns[i].sink_signal, b.vulns[i].sink_signal);
    EXPECT_EQ(a.vulns[i].before, b.vulns[i].before);
    EXPECT_EQ(a.vulns[i].after, b.vulns[i].after);
    EXPECT_EQ(a.vulns[i].program, b.vulns[i].program);
  }
  EXPECT_EQ(a.first_detection, b.first_detection);
  ASSERT_EQ(a.mst_sample.size(), b.mst_sample.size());
  for (std::size_t i = 0; i < a.mst_sample.size(); ++i) {
    EXPECT_EQ(a.mst_sample[i].start_cycle, b.mst_sample[i].start_cycle);
    EXPECT_EQ(a.mst_sample[i].end_cycle, b.mst_sample[i].end_cycle);
    EXPECT_EQ(a.mst_sample[i].inst, b.mst_sample[i].inst);
  }
  EXPECT_EQ(a.total_windows, b.total_windows);
  EXPECT_EQ(a.mispredicted_windows, b.mispredicted_windows);
  EXPECT_EQ(a.pdlc_total, b.pdlc_total);
}

}  // namespace specure::core
