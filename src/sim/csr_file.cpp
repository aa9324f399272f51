#include "sim/csr_file.hpp"

namespace specure::sim {

namespace csr = riscv::csr;

CsrFile::CsrFile(const CoreConfig& cfg) : cfg_(cfg) { reset(); }

void CsrFile::reset() {
  values_ = {};
  write(csr::kMisa, (1ULL << 63) | (1 << 8));  // RV64I
}

std::size_t CsrFile::index_of(std::uint16_t addr) const {
  for (std::size_t i = 0; i < csr::kImplemented.size(); ++i) {
    if (csr::kImplemented[i] == addr) return i;
  }
  return csr::kImplemented.size();
}

bool CsrFile::implemented(std::uint16_t addr) const {
  return index_of(addr) < csr::kImplemented.size();
}

std::uint64_t CsrFile::read(std::uint16_t addr) const {
  const std::size_t i = index_of(addr);
  return i < values_.size() ? values_[i] : 0;
}

void CsrFile::write(std::uint16_t addr, std::uint64_t value) {
  const std::size_t i = index_of(addr);
  if (i >= values_.size()) return;
  values_[i] = value;
  mark(i);
  if (addr == csr::kMwaitEn && cfg_.vuln.mwait_emulation && value != 0) {
    const std::size_t timer = index_of(csr::kMwaitTimer);
    values_[timer] = cfg_.mwait_timer_start;
    mark(timer);
  }
}

void CsrFile::tick() {
  if (!cfg_.vuln.mwait_emulation) return;
  if (values_[index_of(csr::kMwaitEn)] == 0) return;
  const std::size_t ti = index_of(csr::kMwaitTimer);
  std::uint64_t& timer = values_[ti];
  if (timer > 1) {
    --timer;
    mark(ti);
  } else if (timer == 0) {
    // Paper: "If the timer reaches zero, it is set to one" — the wake flag.
    timer = 1;
    mark(ti);
  }
}

bool CsrFile::countdown_armed() const {
  return cfg_.vuln.mwait_emulation && read(csr::kMwaitEn) != 0 &&
         read(csr::kMwaitTimer) > 1;
}

void CsrFile::on_monitored_line_change() {
  if (!cfg_.vuln.mwait_emulation) return;
  if (values_[index_of(csr::kMwaitEn)] == 0) return;
  const std::size_t ti = index_of(csr::kMwaitTimer);
  values_[ti] = 0;
  mark(ti);
}

bool CsrFile::monitoring(std::uint64_t line_base, unsigned line_bytes) const {
  if (!cfg_.vuln.mwait_emulation) return false;
  if (read(csr::kMwaitEn) == 0) return false;
  const std::uint64_t monitored = read(csr::kMonitorAddr);
  return (monitored & ~static_cast<std::uint64_t>(line_bytes - 1)) ==
         line_base;
}

}  // namespace specure::sim
