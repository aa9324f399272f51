// CSR file with the paper's (M)WAIT emulation logic (§4.2).
//
// CSR writes take effect at *commit* (serialized, like real CSR side
// effects), so squashed CSR instructions never alter this state — except
// through the emulated (M)WAIT bug, where the data cache clears
// mwait_timer on monitored-line changes including ones caused by
// speculative (later-squashed) memory accesses. That asynchronous clear is
// the architecture-visible leak Specure must find.
#pragma once

#include <array>
#include <cstdint>

#include "riscv/isa.hpp"
#include "sim/config.hpp"
#include "sim/dirty_set.hpp"

namespace specure::sim {

class CsrFile {
 public:
  explicit CsrFile(const CoreConfig& cfg);

  /// Attach the core's dirty set; `csr_base` is the flat id of CSR index
  /// 0 (the block is contiguous in kImplemented order). Every mutation —
  /// write(), the tick() countdown, the monitored-line clear — marks the
  /// touched CSR's id. Null until bound (the constructor-time reset()
  /// runs unbound, which is fine: the first capture sweeps everything).
  void bind_dirty(DirtySet* dirty, std::size_t csr_base) {
    dirty_ = dirty;
    csr_base_ = csr_base;
  }

  /// Back to power-on state (fresh values + MISA), so a CsrFile can be
  /// reused across runs without reconstructing — the class holds its
  /// config by reference and is deliberately not assignable.
  void reset();

  std::uint64_t read(std::uint16_t addr) const;
  /// Commit-time write. Arming mwait_en loads the countdown timer.
  void write(std::uint16_t addr, std::uint64_t value);
  bool implemented(std::uint16_t addr) const;

  /// Per-cycle (M)WAIT timer behaviour: countdown while armed; when the
  /// timer reaches zero it is set to one (the "wake" indication the paper
  /// describes). No-op unless mwait emulation is configured and armed.
  void tick();

  /// Data-cache hook target: a monitored-line change zeroes the timer.
  void on_monitored_line_change();

  /// True when (M)WAIT emulation is configured, armed, and the given line
  /// base matches the monitored address's line.
  bool monitoring(std::uint64_t line_base, unsigned line_bytes) const;

  // Named accessors for snapshot export.
  std::uint64_t value_at(std::size_t index) const { return values_[index]; }
  static constexpr std::size_t count() {
    return riscv::csr::kImplemented.size();
  }

 private:
  std::size_t index_of(std::uint16_t addr) const;
  void mark(std::size_t index) {
    if (dirty_ != nullptr) dirty_->mark(csr_base_ + index);
  }

  const CoreConfig& cfg_;
  std::array<std::uint64_t, riscv::csr::kImplemented.size()> values_{};
  DirtySet* dirty_ = nullptr;
  std::size_t csr_base_ = 0;
};

}  // namespace specure::sim
