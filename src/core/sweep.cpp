#include "core/sweep.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <thread>

#include "core/report.hpp"
#include "core/session.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace specure::core {

Sweep& Sweep::add(CampaignSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

Sweep& Sweep::on_scenario_done(Observer fn) {
  done_ = std::move(fn);
  return *this;
}

std::vector<SweepOutcome> Sweep::run(std::size_t concurrency) {
  const std::size_t n = specs_.size();
  std::vector<SweepOutcome> rows(n);
  if (n == 0) return rows;

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t conc = concurrency == 0 ? std::min(hw, n) : concurrency;
  conc = std::clamp<std::size_t>(conc, 1, n);
  // Divide the machine between scenario-level and simulation-level
  // parallelism: scenarios whose spec left jobs at 0 (= all hardware)
  // get an equal share instead. Results are unaffected — jobs is
  // wall-clock-only under the batch-determinism contract.
  const std::size_t jobs_share = std::max<std::size_t>(1, hw / conc);

  util::ThreadPool pool(conc);
  std::mutex done_mu;
  pool.parallel_for(n, [&](std::size_t index, std::size_t) {
    SweepOutcome& row = rows[index];
    row.spec = specs_[index];
    try {
      CampaignSpec scaled = specs_[index];
      if (scaled.jobs == 0) scaled.jobs = jobs_share;
      Session session(scaled);
      row.result = session.run();
    } catch (const std::exception& e) {
      row.error = e.what();
    }
    if (done_) {
      const std::lock_guard<std::mutex> lock(done_mu);
      done_(index, row);
    }
  });
  return rows;
}

namespace {

double iters_per_second(const CampaignResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.history.size()) / r.seconds
                       : 0.0;
}

}  // namespace

void Sweep::write_table(std::ostream& os,
                        const std::vector<SweepOutcome>& rows) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%-16s %-10s %-14s %-10s %-10s %-11s %-9s\n", "scenario",
                "iters", "lp-cov", "code-cov", "sigs", "iters/sec",
                "seconds");
  os << line;
  for (const SweepOutcome& row : rows) {
    if (!row.ok()) {
      std::snprintf(line, sizeof line, "%-16s FAILED: %s\n",
                    row.spec.name.c_str(), row.error.c_str());
      os << line;
      continue;
    }
    const CampaignResult& r = row.result;
    const std::size_t lp =
        r.history.empty() ? 0 : r.history.back().covered_pdlc;
    const std::size_t points =
        r.history.empty() ? 0 : r.history.back().coverage_points;
    const std::string lp_cov =
        std::to_string(lp) + "/" + std::to_string(r.pdlc_total);
    // Unique leakage signatures, with the coarse kind+sink bucket count
    // in parentheses — rows are comparable by *distinct mechanisms*.
    const std::string sigs = std::to_string(r.vulns.size()) + "(" +
                             std::to_string(coarse_bucket_count(r)) + ")";
    std::snprintf(line, sizeof line,
                  "%-16s %-10zu %-14s %-10zu %-10s %-11.1f %-9.3f\n",
                  row.spec.name.c_str(), r.history.size(), lp_cov.c_str(),
                  points, sigs.c_str(), iters_per_second(r), r.seconds);
    os << line;
  }
}

void Sweep::write_json(std::ostream& os,
                       const std::vector<SweepOutcome>& rows) {
  os << "{\n  \"scenarios\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepOutcome& row = rows[i];
    os << (i == 0 ? "" : ",") << "\n    {\"scenario\": \""
       << util::escape_json(row.spec.name) << "\"";
    if (!row.ok()) {
      os << ", \"error\": \"" << util::escape_json(row.error) << "\"}";
      continue;
    }
    const CampaignResult& r = row.result;
    const std::size_t lp =
        r.history.empty() ? 0 : r.history.back().covered_pdlc;
    const std::size_t points =
        r.history.empty() ? 0 : r.history.back().coverage_points;
    os << ", \"iterations\": " << r.history.size()
       << ", \"covered_pdlc\": " << lp << ", \"pdlc_total\": " << r.pdlc_total
       << ", \"coverage_points\": " << points
       // vulns counts unique leakage signatures (the dedup axis);
       // coarse_keys counts the kind+sink buckets they group into.
       << ", \"vulns\": " << r.vulns.size()
       << ", \"coarse_keys\": " << coarse_bucket_count(r)
       << ", \"iters_per_sec\": " << iters_per_second(r)
       << ", \"seconds\": " << r.seconds << ", \"spec\": "
       << spec_json(row.spec) << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace specure::core
