// Feedback-driven corpus with an AFL-style power schedule: inputs that
// produced new coverage are kept and preferentially selected/mutated;
// energy decays as an entry is reused so the fuzzer keeps exploring.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/mutator.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/program.hpp"
#include "util/rng.hpp"

namespace specure::fuzz {

struct CorpusEntry {
  riscv::Program program;
  std::string origin;      ///< seed name or "mutation"
  double energy = 1.0;
  std::uint64_t hits = 0;  ///< times selected
  std::uint64_t added_iteration = 0;
};

class Corpus {
 public:
  explicit Corpus(std::size_t max_entries = 256) : max_entries_(max_entries) {}

  void add(riscv::Program program, std::string origin,
           std::uint64_t iteration);

  /// Weighted random selection by energy. Corpus must be non-empty.
  const CorpusEntry& select(util::Rng& rng);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<CorpusEntry>& entries() const { return entries_; }

  /// Replace the entry set wholesale (campaign state restore). Entry
  /// order is part of the deterministic contract: select() walks entries
  /// in order, so a restored corpus must present them exactly as saved.
  void restore(std::vector<CorpusEntry> entries) {
    entries_ = std::move(entries);
  }

 private:
  std::vector<CorpusEntry> entries_;
  std::size_t max_entries_;
};

struct FuzzerOptions {
  bool use_special_seeds = true;   ///< §3.2 transient-window seeds
  std::size_t random_seed_count = 4;
  std::size_t random_seed_len = 96;
  MutatorOptions mutator;
  std::size_t corpus_max = 256;
  /// Probability (percent) of splicing two corpus entries instead of
  /// mutating one.
  unsigned splice_percent = 15;
  /// When non-empty: a riscv::Program::to_hex() image replayed as the
  /// very first test input (iteration 1), ahead of every other seed. The
  /// self-contained repro mechanism — a triage repro.toml is a campaign
  /// spec with replay_program set and a one-iteration budget, so
  /// `specure run repro.toml` re-triggers the finding exactly.
  std::string replay_program_hex;
};

/// One unit of campaign work handed to a simulation worker: the test
/// input and its iteration number (for in-order merging and corpus
/// bookkeeping). Workers are deterministic, so nothing else is needed to
/// reproduce a job on any thread.
struct FuzzJob {
  std::uint64_t iteration = 0;
  riscv::Program program;
};

/// Everything that determines the fuzzer's future output stream, as one
/// plain value: the RNG state, the iteration cursor, the corpus entries
/// (order matters — select() walks them in order) and the not-yet-served
/// seeds. save_state()/restore_state() round-trips it, which is the
/// fuzzing half of the durable campaign frontier (serve/campaign_state):
/// a fuzzer restored from a state drawn after job I continues with job
/// I + 1 exactly as the uninterrupted fuzzer would have.
struct FuzzerState {
  std::array<std::uint64_t, 4> rng_state{};
  std::uint64_t iteration = 0;
  std::vector<CorpusEntry> corpus;
  std::vector<Seed> pending_seeds;
};

/// The Hardware Fuzzer component (§3.2): owns the corpus, generates the
/// next test input, and accepts interestingness feedback from the
/// coverage/vulnerability components.
///
/// Each job is drawn from the corpus as it stands at the draw; feedback
/// reported afterwards (report_interesting with an explicit iteration)
/// shapes only later draws. A campaign keeping one job in flight is the
/// classic generate → simulate → feed-back loop.
class Fuzzer {
 public:
  Fuzzer(const FuzzerOptions& options, std::uint64_t rng_seed);

  /// Produce the next test input (seed replay first, then mutations).
  riscv::Program next();

  /// Produce the next test input as a campaign job (what the campaign
  /// scheduler draws). Consumes the same RNG stream as one call to
  /// next().
  FuzzJob next_job();

  /// Feedback: the input was interesting (new coverage / vulnerability) —
  /// keep it in the corpus. The overload without an iteration stamps the
  /// entry with the current iteration (serial-loop usage); the campaign
  /// merger passes the iteration the program actually ran as.
  void report_interesting(const riscv::Program& program);
  void report_interesting(const riscv::Program& program,
                          std::uint64_t iteration);

  std::uint64_t iteration() const { return iteration_; }
  const Corpus& corpus() const { return corpus_; }

  /// Snapshot / restore the deterministic generation state (restore
  /// moves the corpus and the pending seeds in).
  FuzzerState save_state() const;
  void restore_state(FuzzerState state);

 private:
  riscv::Program generate();

  FuzzerOptions options_;
  util::Rng rng_;
  Corpus corpus_;
  std::vector<Seed> pending_seeds_;
  std::uint64_t iteration_ = 0;
};

}  // namespace specure::fuzz
