#include "sim/memory.hpp"

namespace specure::sim {

using riscv::kCodeBase;
using riscv::kDataBase;
using riscv::kDataSize;

void Memory::load(const riscv::Program& program) {
  code_ = program.code;
  data_.assign(kDataSize, 0);
  for (std::size_t i = 0; i < program.data.size() && i < data_.size(); ++i) {
    data_[i] = program.data[i];
  }
}

std::uint32_t Memory::fetch(std::uint64_t pc) const {
  if (pc < kCodeBase || (pc & 3) != 0) return 0;
  const std::uint64_t index = (pc - kCodeBase) / 4;
  if (index >= code_.size()) return 0;
  return code_[index];
}

bool Memory::data_mapped(std::uint64_t addr, unsigned size) const {
  // Overflow-safe: fuzzed programs routinely produce addresses near 2^64,
  // where a naive addr+size comparison would wrap and pass.
  if (addr < kDataBase) return false;
  const std::uint64_t offset = addr - kDataBase;
  return offset < data_.size() && size <= data_.size() - offset;
}

std::uint64_t Memory::read(std::uint64_t addr, unsigned size) const {
  if (!data_mapped(addr, size)) return 0;
  std::uint64_t v = 0;
  for (unsigned i = 0; i < size; ++i) {
    v |= static_cast<std::uint64_t>(data_[addr - kDataBase + i]) << (8 * i);
  }
  return v;
}

void Memory::write(std::uint64_t addr, unsigned size, std::uint64_t value) {
  if (!data_mapped(addr, size)) return;
  for (unsigned i = 0; i < size; ++i) {
    data_[addr - kDataBase + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

}  // namespace specure::sim
