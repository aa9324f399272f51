// Architectural instruction-set simulator: a sequential, non-speculative
// reference executor for the same RV64I+Zicsr+M subset MiniBOOM runs.
//
// Two uses:
//   1. differential testing — with no vulnerability emulation armed,
//      MiniBOOM's committed architectural state must equal the ISS state
//      on every program (speculation must be invisible);
//   2. it is exactly the "golden reference model" a TheHuzz-style flow
//      compares against, documenting what Specure's no-golden-model
//      detection avoids needing.
#pragma once

#include <array>
#include <cstdint>

#include "riscv/decode.hpp"
#include "riscv/program.hpp"
#include "sim/config.hpp"
#include "sim/csr_file.hpp"
#include "sim/memory.hpp"

namespace specure::sim {

struct IssResult {
  std::array<std::uint64_t, 32> regs{};
  std::uint64_t pc = 0;                 ///< final (halt) PC
  std::uint64_t instructions = 0;       ///< executed count
  bool halted_clean = false;            ///< ECALL/EBREAK/illegal/fall-off
};

class Iss {
 public:
  explicit Iss(const CoreConfig& cfg) : cfg_(cfg), csr_(cfg) {}

  /// Execute sequentially for at most `max_instructions`. Every run
  /// starts from power-on state (memory reloaded, CSRs reset), so one
  /// Iss can be reused across programs.
  IssResult run(const riscv::Program& program,
                std::uint64_t max_instructions = 100000);

  /// Buffer-reusing overload (mirrors Simulator::run(p, RunResult&)):
  /// `out` is reset and refilled; the program is decoded once into an
  /// internal DecodedInst array instead of once per executed instruction.
  void run(const riscv::Program& program, IssResult& out,
           std::uint64_t max_instructions = 100000);

  const CsrFile& csr() const { return csr_; }
  const Memory& memory() const { return mem_; }

 private:
  CoreConfig cfg_;
  Memory mem_;
  CsrFile csr_;
  riscv::DecodedProgram decode_;  ///< per-run decode cache (reused buffer)
};

}  // namespace specure::sim
