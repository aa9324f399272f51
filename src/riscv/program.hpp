// Test-input representation. A Program is the unit the fuzzer mutates and
// the simulator executes: a code image (32-bit words, loaded at kCodeBase)
// plus an initial data-memory image (loaded at kDataBase).
//
// ProgramBuilder is a tiny label-based assembler used by the special-seed
// generators, the examples and the tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "riscv/encode.hpp"
#include "util/rng.hpp"

namespace specure::riscv {

/// Memory layout constants shared by program generation and the simulator.
constexpr std::uint64_t kCodeBase = 0x8000'0000;
constexpr std::uint64_t kDataBase = 0x8001'0000;
constexpr std::uint64_t kDataSize = 0x1'0000;  ///< 64 KiB data region.

struct Program {
  std::vector<std::uint32_t> code;
  std::vector<std::uint8_t> data;

  bool empty() const { return code.empty(); }

  /// Flat byte serialization (little-endian code words, then a length-
  /// prefixed data image). Used for corpus storage and byte-level mutation.
  std::vector<std::uint8_t> to_bytes() const;
  static Program from_bytes(const std::vector<std::uint8_t>& bytes);

  /// Lowercase hex rendering of to_bytes(), the self-contained program
  /// encoding embedded in JSON reports and repro.toml `replay_program`
  /// keys. from_hex() throws std::runtime_error on odd length or
  /// non-hex characters.
  std::string to_hex() const;
  static Program from_hex(const std::string& hex);

  bool operator==(const Program&) const = default;
};

/// Label-based program builder.
class ProgramBuilder {
 public:
  /// Append a raw, already-encoded instruction.
  ProgramBuilder& raw(std::uint32_t word);

  // Common instructions (thin wrappers over the encoders).
  ProgramBuilder& addi(std::uint8_t rd, std::uint8_t rs1, std::int64_t imm);
  ProgramBuilder& li(std::uint8_t rd, std::int64_t value);  ///< LUI+ADDI combo.
  ProgramBuilder& add(std::uint8_t rd, std::uint8_t rs1, std::uint8_t rs2);
  ProgramBuilder& sub(std::uint8_t rd, std::uint8_t rs1, std::uint8_t rs2);
  ProgramBuilder& xor_(std::uint8_t rd, std::uint8_t rs1, std::uint8_t rs2);
  ProgramBuilder& slli(std::uint8_t rd, std::uint8_t rs1, unsigned shamt);
  ProgramBuilder& ld(std::uint8_t rd, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& lw(std::uint8_t rd, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& lb(std::uint8_t rd, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& sd(std::uint8_t rs2, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& sw(std::uint8_t rs2, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& jalr(std::uint8_t rd, std::uint8_t rs1, std::int64_t off);
  ProgramBuilder& csrrw(std::uint8_t rd, std::uint16_t csr, std::uint8_t rs1);
  ProgramBuilder& csrrs(std::uint8_t rd, std::uint16_t csr, std::uint8_t rs1);
  ProgramBuilder& csrrwi(std::uint8_t rd, std::uint16_t csr, std::uint8_t zimm);
  ProgramBuilder& nop();
  ProgramBuilder& ecall();

  // Label management: branches/jumps to not-yet-defined labels are fixed up
  // in build().
  ProgramBuilder& label(const std::string& name);
  ProgramBuilder& branch(Op op, std::uint8_t rs1, std::uint8_t rs2,
                         const std::string& target);
  ProgramBuilder& jal(std::uint8_t rd, const std::string& target);
  /// Load the absolute address of a label (AUIPC+ADDI pair).
  ProgramBuilder& la(std::uint8_t rd, const std::string& target);

  /// Set the initial data image.
  ProgramBuilder& with_data(std::vector<std::uint8_t> data);
  /// Store a 64-bit little-endian value at a data-image offset.
  ProgramBuilder& data_u64(std::size_t offset, std::uint64_t value);

  /// Resolve labels and produce the program. Throws std::runtime_error on
  /// undefined labels.
  Program build();

  std::size_t size() const { return code_.size(); }

 private:
  struct Fixup {
    std::size_t index;
    Op op;
    std::uint8_t rd, rs1, rs2;
    std::string target;
  };
  std::vector<std::uint32_t> code_;
  std::vector<std::uint8_t> data_;
  std::map<std::string, std::size_t> labels_;
  std::vector<Fixup> fixups_;
};

/// Generate one random, *valid* instruction word (used by the
/// instruction-aware mutator so mutated programs stay mostly decodable).
/// Offsets of control flow stay within [-window, +window] instructions.
std::uint32_t random_instruction(util::Rng& rng, std::size_t inst_index,
                                 std::size_t program_len);

/// Generate a fully random program of `len` instructions plus a random
/// data image.
Program random_program(util::Rng& rng, std::size_t len,
                       std::size_t data_len = 256);

}  // namespace specure::riscv
