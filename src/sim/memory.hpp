// Flat behavioural memory backing the MiniBOOM core: a read-only code
// image and a small writable data region (riscv::kDataBase/kDataSize).
// Accesses outside the mapped regions report a fault instead of trapping
// the host.
#pragma once

#include <cstdint>
#include <vector>

#include "riscv/program.hpp"

namespace specure::sim {

class Memory {
 public:
  /// Load a program image: code at kCodeBase, data at kDataBase.
  void load(const riscv::Program& program);

  /// Fetch one instruction word; returns 0 (illegal) outside the image.
  std::uint32_t fetch(std::uint64_t pc) const;

  /// True if [addr, addr+size) lies fully inside the data region.
  bool data_mapped(std::uint64_t addr, unsigned size) const;

  /// Little-endian data read/write of 1/2/4/8 bytes. Unmapped accesses
  /// return 0 / are dropped; callers should check data_mapped() first when
  /// fault distinction matters.
  std::uint64_t read(std::uint64_t addr, unsigned size) const;
  void write(std::uint64_t addr, unsigned size, std::uint64_t value);

  std::size_t code_words() const { return code_.size(); }

  /// The full data-region image (for end-of-run architectural comparison).
  const std::vector<std::uint8_t>& data_image() const { return data_; }

 private:
  std::vector<std::uint32_t> code_;
  std::vector<std::uint8_t> data_;
};

}  // namespace specure::sim
