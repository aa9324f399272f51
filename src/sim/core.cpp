#include "sim/core.hpp"

#include "sim/core_impl.hpp"

namespace specure::sim {

using detail::Core;

void RunResult::reset() {
  trace.reset();
  dense_trace.reset();
  commits.clear();
  coverage.clear();
  cycles = 0;
  instructions_committed = 0;
  halted_clean = false;
  quiescent = false;
  dirty_ids = 0;
  final_data.clear();
}

Simulator::Simulator(CoreConfig cfg) : cfg_(cfg) {
  descs_ = describe_signals(cfg_);
  layout_ = signal_layout(descs_, cfg_);
  for (const auto& d : descs_) {
    db_.add(d.name, d.width, d.cls, d.is_register);
  }
}

RunResult Simulator::run(const riscv::Program& program) const {
  RunResult res(&db_);
  run(program, res);
  return res;
}

void Simulator::run(const riscv::Program& program, RunResult& out) const {
  Core core(cfg_, descs_, layout_, db_, decode_scratch_, committed_scratch_);
  core.run(program, out);
}

}  // namespace specure::sim
