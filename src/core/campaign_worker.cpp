#include "core/campaign_worker.hpp"

#include <algorithm>
#include <chrono>

#include "fuzz/mutator.hpp"
#include "snapshot/snapshot.hpp"

namespace specure::core {

const sim::Checkpoint* CheckpointCache::Entry::best_for(
    std::size_t divergence, std::uint64_t min_cycles) const {
  // Points are ascending by cycle and their watermarks are
  // non-decreasing, so the first qualifying point from the back is the
  // deepest resume.
  for (auto it = points.rbegin(); it != points.rend(); ++it) {
    if (it->fetch_watermark < static_cast<std::uint64_t>(divergence)) {
      return it->cycle >= min_cycles ? &*it : nullptr;
    }
  }
  return nullptr;
}

CheckpointCache::Entry* CheckpointCache::find(
    std::uint64_t hash, const riscv::Program& expected) {
  const auto it = map_.find(hash);
  if (it == map_.end()) return nullptr;
  if (!(it->second.program == expected)) return nullptr;  // hash collision
  it->second.stamp = ++clock_;
  return &it->second;
}

CheckpointCache::Entry* CheckpointCache::insert(std::uint64_t hash,
                                                Entry entry,
                                                CheckpointStats& stats,
                                                Entry* recycled) {
  entry.bytes = sizeof(Entry) + entry.trace.memory_bytes() +
                entry.commits.size() * sizeof(sim::CommitRecord) +
                entry.program.code.size() * sizeof(std::uint32_t) +
                entry.program.data.size();
  for (const sim::Checkpoint& cp : entry.points) {
    entry.bytes += cp.memory_bytes();
  }
  if (entry.bytes > budget_) return nullptr;  // never cacheable
  // Replacing an existing entry (the fuzzer regenerated an identical
  // program) must release its accounted bytes first, or total_ inflates
  // by the replaced size on every duplicate.
  const auto existing = map_.find(hash);
  if (existing != map_.end()) {
    total_ -= existing->second.bytes;
    map_.erase(existing);
  }
  while (total_ + entry.bytes > budget_ && !map_.empty()) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.stamp < victim->second.stamp) victim = it;
    }
    total_ -= victim->second.bytes;
    if (recycled != nullptr) *recycled = std::move(victim->second);
    map_.erase(victim);
    ++stats.evictions;
  }
  entry.stamp = ++clock_;
  total_ += entry.bytes;
  auto [it, inserted] = map_.emplace(hash, std::move(entry));
  (void)inserted;
  return &it->second;
}

CampaignWorker::CampaignWorker(const sim::CoreConfig& core,
                               const OfflineResult& offline,
                               LpPolicy lp_policy,
                               const DetectorOptions& detector,
                               const WorkerCheckpointOptions& checkpoint,
                               const WorkerTierOptions& tier)
    : sim_(core),
      lp_probe_(offline.ifg, offline.pdlc, sim_.signal_db(), lp_policy),
      detector_(offline.ifg, offline.pdlc, sim_.signal_db(), detector),
      checkpoint_(checkpoint),
      tier_(tier),
      cache_(checkpoint.cache_bytes),
      scratch_(&sim_.signal_db()) {}

void CampaignWorker::set_observability(const WorkerObservability& hooks) {
  tracer_ = hooks.tracer;
  lane_ = hooks.lane;
  cache_hits_ = cache_misses_ = capped_runs_ = obs::Counter();
  run_cycles_ = obs::Histogram();
  if (hooks.registry != nullptr) {
    cache_hits_ = hooks.registry->counter("checkpoint/cache_hits");
    cache_misses_ = hooks.registry->counter("checkpoint/cache_misses");
    capped_runs_ = hooks.registry->counter("sim/capped_runs");
    if (hooks.histograms) {
      run_cycles_ = hooks.registry->histogram("hist/run_cycles");
    }
  }
}

const sim::RunResult& CampaignWorker::simulate(const fuzz::FuzzJob& job) {
  pending_points_.clear();
  last_resumed_ = false;
  last_resume_cycle_ = 0;
  last_handoff_ = 0;
  const bool fast_path =
      checkpoint_.enabled && !sim_.config().record_dense_trace;
  const bool tiered = tier_.fast && !sim_.config().record_dense_trace;

  // The handoff point: first instruction that can arm speculation under
  // the active detector policy, capped at the mutant's first divergence
  // from its parent (past that index the decode scan describes the
  // parent's prefix, not necessarily the mutant's — the cap keeps the
  // fast tier inside the provably shared straight-line region).
  std::size_t handoff = 0;
  const riscv::DecodedProgram* dec = nullptr;  // one decode per job
  if (tiered) {
    dec = &sim_.decode(job.program);
    handoff = fuzz::handoff_index(*dec, tier_.loads_arm);
    if (job.has_parent) handoff = std::min(handoff, job.divergence);
    // Shallow prefixes cost more to hand off than to just re-run in the
    // detailed core: clamp to 0, which run_tiered treats as a pure
    // detailed run (a TierStats fallback) while still reusing `dec`.
    // Whole-run fast completions are exempt — they never pay a handoff.
    if (handoff < tier_.min_handoff_insts && handoff < dec->insts.size()) {
      handoff = 0;
    }
  }

  if (fast_path && job.has_parent && job.divergence > 0) {
    CheckpointCache::Entry* entry = cache_.find(job.parent_hash, job.parent);
    if (entry != nullptr) {
      const sim::Checkpoint* cp =
          entry->best_for(job.divergence, checkpoint_.min_resume_cycles);
      // A tiered worker only resumes from checkpoints at/past the
      // handoff: re-running the prefix in the fast tier dominates a
      // shallower state restore + trace fork.
      if (cp != nullptr &&
          (!tiered || cp->fetch_watermark >= static_cast<std::uint64_t>(
                                                 handoff))) {
        ++stats_.resumed;
        stats_.resumed_cycles += cp->cycle;
        last_resumed_ = true;
        last_resume_cycle_ = cp->cycle;
        cache_hits_.add(lane_);
        if (tracer_ != nullptr) {
          const auto r0 = std::chrono::steady_clock::now();
          sim_.run_from(*cp, entry->trace, entry->commits, job.program,
                        scratch_);
          tracer_->record(
              lane_, "checkpoint_resume", "sim", r0,
              std::chrono::steady_clock::now(), job.iteration,
              {"resume_cycle", static_cast<std::int64_t>(cp->cycle)},
              {"watermark",
               static_cast<std::int64_t>(cp->fetch_watermark)});
        } else {
          sim_.run_from(*cp, entry->trace, entry->commits, job.program,
                        scratch_);
        }
        return scratch_;
      }
    }
  }
  ++stats_.cold;
  cache_misses_.add(lane_);
  last_handoff_ = handoff;
  if (tiered) {
    // `dec` (the handoff scan's decode) is still valid: no run happened
    // in between, so the simulator skips a second decode.
    sim::TierPhaseTimes phases;
    sim::TierPhaseTimes* p = tracer_ != nullptr ? &phases : nullptr;
    if (fast_path) {
      sim_.run_tiered(job.program, handoff, checkpoint_.cadence,
                      pending_points_, scratch_, &tier_stats_, dec, p);
    } else {
      sim_.run_tiered(job.program, handoff, scratch_, &tier_stats_, dec, p);
    }
    if (tracer_ != nullptr && phases.entered_fast) {
      last_handoff_ = phases.handoff_index;
      tracer_->record(
          lane_, "fast_tier", "sim", phases.fast_begin, phases.fast_end,
          job.iteration,
          {"handoff", static_cast<std::int64_t>(phases.handoff_index)});
      if (phases.continued_detailed) {
        tracer_->record(lane_, "detailed", "sim", phases.fast_end,
                        phases.detailed_end, job.iteration);
      }
    }
  } else if (fast_path) {
    // Emit checkpoints as a side effect (~1% of the run): if this
    // program later becomes a corpus parent, its resume points are
    // already on this worker (parent-affinity routes its children here).
    sim_.run(job.program, checkpoint_.cadence, pending_points_, scratch_);
  } else {
    sim_.run(job.program, scratch_);
  }
  return scratch_;
}

void CampaignWorker::process(const fuzz::FuzzJob& job,
                             const util::AtomicBitset* lp_already_covered,
                             WorkerResult& out) {
  std::chrono::steady_clock::time_point e0;
  if (tracer_ != nullptr) e0 = std::chrono::steady_clock::now();
  // Recycle the shell's coverage buckets into the scratch RunResult
  // before the run (the simulator resets them keeping capacity), closing
  // the buffer-reuse loop across the executor's queue boundary.
  scratch_.coverage = std::move(out.coverage);
  const sim::RunResult& run = simulate(job);

  out.iteration = job.iteration;
  extract_mst(run.trace, out.windows);
  lp_probe_.probe(run.trace, out.windows, lp_already_covered, out.lp_hits);
  out.reports = detector_.analyze(run, out.windows);
  // The detector never sees the test input; stamp it so confirmed
  // findings stay re-simulatable (waveform export, triage minimization).
  for (VulnReport& report : out.reports) report.program = job.program;
  out.coverage = std::move(scratch_.coverage);
  out.cycles = run.cycles;
  // Simulation cost per iteration follows run length, and runs that
  // exhaust the cycle budget are its long tail.
  run_cycles_.record(lane_, run.cycles);
  if (run.cycles >= sim_.config().max_cycles) capped_runs_.add(lane_);

  // Donate the finished cold run to the checkpoint cache (the analysis
  // above is done with the trace; the merger never sees it anyway). An
  // evicted entry hands its trace/commit buffers back to the scratch
  // RunResult, so steady-state donation costs no allocator round trips.
  if (!pending_points_.empty()) {
    ++stats_.insertions;
    CheckpointCache::Entry fresh;
    fresh.program = job.program;
    fresh.points = std::move(pending_points_);
    fresh.trace = std::move(scratch_.trace);
    fresh.commits = std::move(scratch_.commits);
    CheckpointCache::Entry recycled;
    cache_.insert(job.program.hash(), std::move(fresh), stats_, &recycled);
    if (!recycled.program.empty()) {  // an entry was actually evicted
      scratch_.trace = std::move(recycled.trace);
      scratch_.commits = std::move(recycled.commits);
    }
    pending_points_.clear();
  }

  if (tracer_ != nullptr) {
    tracer_->record(
        lane_, "execute", "pipeline", e0, std::chrono::steady_clock::now(),
        job.iteration, {"cache_hit", last_resumed_ ? 1 : 0},
        {"handoff", static_cast<std::int64_t>(last_handoff_)},
        {"resume_cycle", static_cast<std::int64_t>(last_resume_cycle_)});
  }
}

}  // namespace specure::core
