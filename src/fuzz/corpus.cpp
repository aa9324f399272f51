#include "fuzz/corpus.hpp"

#include <algorithm>

namespace specure::fuzz {

void Corpus::add(riscv::Program program, std::string origin,
                 std::uint64_t iteration) {
  if (entries_.size() >= max_entries_) {
    // Evict the lowest-energy entry to bound memory.
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const CorpusEntry& a, const CorpusEntry& b) {
          return a.energy < b.energy;
        });
    *victim = CorpusEntry{};
    victim->program = std::move(program);
    victim->origin = std::move(origin);
    victim->added_iteration = iteration;
    return;
  }
  CorpusEntry e;
  e.program = std::move(program);
  e.origin = std::move(origin);
  e.added_iteration = iteration;
  entries_.push_back(std::move(e));
}

const CorpusEntry& Corpus::select(util::Rng& rng) {
  double total = 0;
  for (const auto& e : entries_) total += e.energy;
  double pick = rng.uniform01() * total;
  for (auto& e : entries_) {
    pick -= e.energy;
    if (pick <= 0) {
      ++e.hits;
      e.energy *= 0.97;  // decay: favour fresher entries over time
      return e;
    }
  }
  auto& last = entries_.back();
  ++last.hits;
  return last;
}

Fuzzer::Fuzzer(const FuzzerOptions& options, std::uint64_t rng_seed)
    : options_(options),
      rng_(rng_seed),
      corpus_(options.corpus_max),
      job_seed_base_(util::Rng::derive_seed(rng_seed, 0x10b5eedULL)) {
  util::Rng seed_rng = rng_.fork();
  if (options_.use_special_seeds) {
    for (auto& s : special_seeds(seed_rng)) {
      pending_seeds_.push_back(std::move(s));
    }
  }
  for (auto& s : random_seeds(seed_rng, options_.random_seed_count,
                              options_.random_seed_len)) {
    pending_seeds_.push_back(std::move(s));
  }
  if (!options_.replay_program_hex.empty()) {
    // Pending seeds are served back-first, so pushing the replay seed
    // last makes it iteration 1 (validate() already vetted the hex).
    Seed replay;
    replay.name = "replay";
    replay.program = riscv::Program::from_hex(options_.replay_program_hex);
    pending_seeds_.push_back(std::move(replay));
  }
}

riscv::Program Fuzzer::next() {
  ++iteration_;
  return generate();
}

FuzzJob Fuzzer::next_job() {
  FuzzJob job;
  job.iteration = ++iteration_;
  job.program = generate();
  job.rng_seed = util::Rng::derive_seed(job_seed_base_, job.iteration);
  return job;
}

std::vector<FuzzJob> Fuzzer::next_batch(std::size_t count) {
  std::vector<FuzzJob> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) batch.push_back(next_job());
  return batch;
}

riscv::Program Fuzzer::generate() {
  if (!pending_seeds_.empty()) {
    Seed s = std::move(pending_seeds_.back());
    pending_seeds_.pop_back();
    corpus_.add(s.program, s.name, iteration_);
    return std::move(s.program);
  }
  if (corpus_.empty()) {
    return riscv::random_program(rng_, options_.random_seed_len);
  }
  if (corpus_.size() >= 2 && rng_.chance(options_.splice_percent, 100)) {
    const auto& a = corpus_.select(rng_);
    const auto& b = corpus_.select(rng_);
    return mutate(splice(a.program, b.program, rng_), rng_, options_.mutator);
  }
  return mutate(corpus_.select(rng_).program, rng_, options_.mutator);
}

FuzzerState Fuzzer::save_state() const {
  FuzzerState state;
  state.rng_state = rng_.state();
  state.iteration = iteration_;
  state.corpus = corpus_.entries();
  state.pending_seeds = pending_seeds_;
  return state;
}

void Fuzzer::restore_state(const FuzzerState& state) {
  rng_.set_state(state.rng_state);
  iteration_ = state.iteration;
  corpus_.restore(state.corpus);
  pending_seeds_ = state.pending_seeds;
}

void Fuzzer::report_interesting(const riscv::Program& program) {
  report_interesting(program, iteration_);
}

void Fuzzer::report_interesting(const riscv::Program& program,
                                std::uint64_t iteration) {
  corpus_.add(program, "mutation", iteration);
}

}  // namespace specure::fuzz
