// 32-bit RISC-V instruction word -> DecodedInst. The decoder accepts the
// RV64I + Zicsr + MUL/DIV subset from isa.hpp; anything else decodes to
// Op::kIllegal (with fields zeroed) so the fuzzer can feed arbitrary bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "riscv/isa.hpp"

namespace specure::riscv {

struct DecodedInst {
  Op op = Op::kIllegal;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int64_t imm = 0;       ///< Sign-extended immediate (format-dependent).
  std::uint16_t csr = 0;      ///< CSR address for Zicsr ops.
  std::uint8_t zimm = 0;      ///< 5-bit immediate for CSRR*I.
  std::uint32_t raw = 0;      ///< Original instruction word.

  bool valid() const { return op != Op::kIllegal; }
};

/// Decode one instruction word.
DecodedInst decode(std::uint32_t word);

/// A whole program decoded once, indexable by code-word index. The
/// simulator and the ISS each keep one and rebuild it per run, so a
/// program is decoded once per run (build() keeps the vector's capacity
/// across programs).
struct DecodedProgram {
  std::vector<DecodedInst> insts;

  void build(const std::vector<std::uint32_t>& code) {
    insts.clear();
    insts.reserve(code.size());
    for (const std::uint32_t word : code) insts.push_back(decode(word));
  }
};

}  // namespace specure::riscv
