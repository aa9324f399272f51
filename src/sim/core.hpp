// MiniBOOM: a cycle-level, speculative, out-of-order-retirement RISC-V
// core — the processor-under-test substitute for BOOM (DESIGN.md §1).
//
// The model is in-order single-issue with delayed branch resolution, which
// yields genuine speculative windows: instructions issued after an
// unresolved branch execute speculatively (loads really access the data
// cache, allocations really happen in the rename stage) and are squashed
// on misprediction by restoring the rename map-table checkpoint. Cache,
// TLB and predictor state deliberately survive squashes (the Spectre
// residue); the (M)WAIT and Zenbleed emulations from the paper's §4.2 are
// switchable via CoreConfig::vuln.
//
// Simulator is the reusable harness: it owns the snapshot schema and runs
// one Program per run() call on a fresh core, producing the per-cycle
// snapshot trace, the commit log, and code coverage — everything the
// Online Phase consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "riscv/decode.hpp"
#include "riscv/program.hpp"
#include "sim/bpred.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/coverage.hpp"
#include "sim/csr_file.hpp"
#include "sim/memory.hpp"
#include "sim/rename.hpp"
#include "sim/structure.hpp"
#include "sim/tlb.hpp"
#include "snapshot/snapshot.hpp"

namespace specure::sim {

/// One committed (architecturally retired) instruction. The Vulnerability
/// Detector uses this log to discharge architectural-state changes that
/// are explained by bona-fide commits (DESIGN.md D4/D5).
struct CommitRecord {
  std::uint64_t cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t inst = 0;
  bool writes_rd = false;
  std::uint8_t rd = 0;
  bool writes_csr = false;
  std::uint16_t csr = 0;
  bool is_store = false;
  std::uint64_t store_addr = 0;
};

struct RunResult {
  snapshot::Trace trace;
  /// Dense reference recording of the same run; only populated when
  /// CoreConfig::record_dense_trace is set (trace differential suite).
  std::unique_ptr<snapshot::DenseTrace> dense_trace;
  std::vector<CommitRecord> commits;
  CoverageRecorder coverage;
  std::uint64_t cycles = 0;
  std::uint64_t instructions_committed = 0;
  bool halted_clean = false;  ///< ECALL/EBREAK commit or fall-off-end
  /// Final data-memory image (committed stores applied), for
  /// architectural end-state comparison.
  std::vector<std::uint8_t> final_data;

  explicit RunResult(const snapshot::SignalDb* db) : trace(db) {}

  /// Drop the previous run's contents but keep every allocated buffer
  /// (trace columns, commit log, data image), so one RunResult can be
  /// reused across a worker's iterations without per-run reallocation.
  void reset();
};

class Simulator {
 public:
  explicit Simulator(CoreConfig cfg);

  /// Simulate one program on a cold core.
  RunResult run(const riscv::Program& program) const;

  /// Buffer-reusing cold run: `out` is reset (keeping capacity) and
  /// refilled. `out` must have been constructed against a SignalDb with
  /// this simulator's schema.
  void run(const riscv::Program& program, RunResult& out) const;

  const snapshot::SignalDb& signal_db() const { return db_; }
  const CoreConfig& config() const { return cfg_; }
  const std::vector<SigDesc>& signal_descs() const { return descs_; }

 private:
  CoreConfig cfg_;
  std::vector<SigDesc> descs_;
  /// Flat-id block offsets of descs_ (validated once at construction) —
  /// what the per-component dirty-set hooks index by.
  SignalLayout layout_;
  snapshot::SignalDb db_;
  /// Per-program decode buffer, reused across runs (capacity persists).
  /// Simulator stays logically const across runs but is NOT safe for
  /// concurrent use from multiple threads — every existing holder
  /// (campaign workers, minimizer probe workers, session/baseline sims)
  /// is thread-private by construction.
  mutable riscv::DecodedProgram decode_scratch_;
};

}  // namespace specure::sim
