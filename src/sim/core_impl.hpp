// The core's per-run execution engine behind Simulator::run. Not part of
// the public API — include sim/core.hpp and drive a Simulator instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/core.hpp"
#include "sim/dirty_set.hpp"
#include "util/bits.hpp"

namespace specure::sim::detail {

namespace csr = riscv::csr;
using riscv::DecodedInst;
using riscv::Op;

/// Evaluate an ALU/shift/compare/mul/div operation on resolved operands.
inline std::uint64_t eval_alu(const DecodedInst& d, std::uint64_t a,
                              std::uint64_t b) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  auto sext32 = [](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
  };
  switch (d.op) {
    case Op::kAddi: case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kSlti: case Op::kSlt: return sa < sb ? 1 : 0;
    case Op::kSltiu: case Op::kSltu: return a < b ? 1 : 0;
    case Op::kXori: case Op::kXor: return a ^ b;
    case Op::kOri: case Op::kOr: return a | b;
    case Op::kAndi: case Op::kAnd: return a & b;
    case Op::kSlli: case Op::kSll: return a << (b & 63);
    case Op::kSrli: case Op::kSrl: return a >> (b & 63);
    case Op::kSrai: case Op::kSra:
      return static_cast<std::uint64_t>(sa >> (b & 63));
    case Op::kAddiw: case Op::kAddw: return sext32(a + b);
    case Op::kSubw: return sext32(a - b);
    case Op::kSlliw: case Op::kSllw: return sext32(a << (b & 31));
    case Op::kSrliw: case Op::kSrlw:
      return sext32(static_cast<std::uint32_t>(a) >> (b & 31));
    case Op::kSraiw: case Op::kSraw:
      return sext32(static_cast<std::uint64_t>(
          static_cast<std::int32_t>(a) >> (b & 31)));
    case Op::kLui: return static_cast<std::uint64_t>(d.imm);
    case Op::kMul: return a * b;
    case Op::kMulh:
      return static_cast<std::uint64_t>(
          (static_cast<__int128>(sa) * static_cast<__int128>(sb)) >> 64);
    case Op::kDiv:
      if (b == 0) return ~0ULL;
      if (sa == INT64_MIN && sb == -1) return a;
      return static_cast<std::uint64_t>(sa / sb);
    case Op::kDivu: return b == 0 ? ~0ULL : a / b;
    case Op::kRem:
      if (b == 0) return a;
      if (sa == INT64_MIN && sb == -1) return 0;
      return static_cast<std::uint64_t>(sa % sb);
    case Op::kRemu: return b == 0 ? a : a % b;
    default: return 0;
  }
}

inline bool branch_taken(Op op, std::uint64_t a, std::uint64_t b) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return sa < sb;
    case Op::kBge: return sa >= sb;
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

inline std::uint64_t extend_load(Op op, std::uint64_t raw) {
  switch (op) {
    case Op::kLb: return static_cast<std::uint64_t>(util::sext(raw, 8));
    case Op::kLh: return static_cast<std::uint64_t>(util::sext(raw, 16));
    case Op::kLw: return static_cast<std::uint64_t>(util::sext(raw, 32));
    default: return raw;  // LD and the unsigned variants
  }
}

/// One reorder-buffer slot.
struct RobEntry {
  bool valid = false;
  std::uint64_t seq = 0;  ///< monotonically increasing issue order
  std::uint64_t pc = 0;
  riscv::DecodedInst dec;
  bool done = false;
  bool squashed = false;
  std::uint64_t ready_cycle = 0;

  bool writes_rd = false;
  PhysReg new_phys = 0;
  PhysReg old_phys = 0;
  std::uint64_t result = 0;
  bool result_tainted = false;

  bool is_ctrl = false;       ///< conditional branch or JALR
  bool unsafe = false;        ///< unresolved speculative window opener
  bool resolved = false;
  bool mispredicted = false;
  bool pred_taken = false;
  std::uint64_t pred_next = 0;
  bool actual_taken = false;
  std::uint64_t actual_next = 0;

  bool is_store = false;
  std::uint64_t mem_addr = 0;
  std::uint64_t store_value = 0;
  unsigned mem_size = 0;

  bool writes_csr = false;
  std::uint16_t csr_addr = 0;
  std::uint64_t csr_wval = 0;

  bool is_halt = false;  ///< ECALL/EBREAK
};

/// One core executing one program on a cold state. Lives for the duration
/// of a Simulator::run call.
class Core {
 public:
  Core(const CoreConfig& cfg, const std::vector<SigDesc>& descs,
       const SignalLayout& layout, const snapshot::SignalDb& db,
       riscv::DecodedProgram& decode_buf)
      : cfg_(cfg),
        descs_(descs),
        layout_(layout),
        db_(db),
        bp_(cfg),
        csr_(cfg),
        rename_(cfg),
        tlb_(cfg),
        dcache_(cfg, mem_),
        rob_(cfg.rob_entries),
        prf_ready_(cfg.phys_regs, true),
        prf_taint_(cfg.phys_regs, false),
        decode_buf_(decode_buf) {
    dcache_.set_line_change_hook([this](std::uint64_t line, DcacheEvent ev) {
      on_cache_line_event(line, ev);
    });
    // Dirty-set capture engine: components mark the signal ids they write;
    // capture() re-records only those (plus the always-dirty base set).
    dirty_.init(descs_.size());
    // Base set — signals derived or (re)written unconditionally every
    // cycle: the fetch PC, the 12-signal ROB/pulse block (cursors, the
    // oldest-unsafe window view, the brupdate and commit pulses) and the
    // exec/LSU wire block (incl. the tainted_access pulse). begin_cycle()
    // clears the pulses and the window view follows the ROB scan, so no
    // single component can own their marks.
    dirty_.base_mark(layout_.fetch_pc);
    for (std::size_t k = 0; k < 12; ++k) dirty_.base_mark(layout_.rob_head + k);
    for (std::size_t k = 0; k < 4; ++k) {
      dirty_.base_mark(layout_.exec_result + k);
    }
    rename_.bind_dirty(&dirty_, layout_.maptable, layout_.freecount,
                       layout_.prf, layout_.rfx);
    csr_.bind_dirty(&dirty_, layout_.csr);
    bp_.bind_dirty(&dirty_, layout_.bp_ghist, layout_.bp_pht, layout_.btb,
                   layout_.ras, layout_.ras_top);
    dcache_.bind_dirty(&dirty_, layout_.dcache, layout_.dcache_set_stride);
    tlb_.bind_dirty(&dirty_, layout_.tlb);
  }

  /// Cold run of `program` into `res` (reset first).
  void run(const riscv::Program& program, RunResult& res) {
    res.reset();
    if (cfg_.record_dense_trace) {
      res.dense_trace = std::make_unique<snapshot::DenseTrace>(&db_);
    }
    mem_.load(program);
    decode_buf_.build(program.code);
    fetch_pc_ = riscv::kCodeBase;
    loop(res);
    res.cycles = cycle_;
    res.halted_clean = halted_ || (rob_count_ == 0 && fetch_done());
    res.final_data = mem_.data_image();
  }

 private:
  void loop(RunResult& res) {
    while (!halted_ && cycle_ < cfg_.max_cycles) {
      ++cycle_;
      begin_cycle();
      retire(res);
      execute_and_resolve(res);
      issue(res);
      csr_.tick();
      capture(res);
      if (rob_count_ == 0 && fetch_done()) break;
    }
  }

  // ------------------------------------------------------------ helpers --
  unsigned rob_next(unsigned i) const {
    return (i + 1) % static_cast<unsigned>(rob_.size());
  }
  bool rob_full() const { return rob_count_ == rob_.size(); }

  bool fetch_done() const {
    return mem_.fetch(fetch_pc_) == 0 && fetch_pc_ >= riscv::kCodeBase &&
           (fetch_pc_ - riscv::kCodeBase) / 4 >= mem_.code_words();
  }

  // --------------------------------------------------------- decode cache --
  /// The fetch path reads this run's DecodedInsts (built in run()) by
  /// index instead of re-decoding the same word every cycle (stalled
  /// issues re-enter issue() each cycle).
  const DecodedInst& decode_at(std::uint64_t pc, std::uint32_t word) {
    if (pc >= riscv::kCodeBase && (pc & 3) == 0) {
      const std::uint64_t index = (pc - riscv::kCodeBase) / 4;
      if (index < decode_buf_.insts.size()) return decode_buf_.insts[index];
    }
    // Off-image or misaligned fetch: `word` is 0 there (Memory::fetch),
    // identical to the pre-cache decode(0) path.
    scratch_dec_ = riscv::decode(word);
    return scratch_dec_;
  }

  bool store_overlap(std::uint64_t addr, unsigned size) const {
    for (const auto& e : rob_) {
      if (!e.valid || e.squashed || !e.is_store) continue;
      if (addr < e.mem_addr + e.mem_size && e.mem_addr < addr + size) {
        return true;
      }
    }
    return false;
  }

  /// O(1) open-window test: unsafe_count_ counts ROB entries with
  /// (valid && unsafe && !resolved && !squashed) — incremented at
  /// branch/JALR issue, decremented on resolve and on squash-release. It
  /// gates the per-cycle oldest_unsafe() scan,
  /// which otherwise ran O(rob) even with no window open.
  bool any_unsafe() const { return unsafe_count_ != 0; }

  const RobEntry* oldest_unsafe() const {
    const RobEntry* best = nullptr;
    for (const auto& e : rob_) {
      if (e.valid && e.unsafe && !e.resolved && !e.squashed) {
        if (best == nullptr || e.seq < best->seq) best = &e;
      }
    }
    return best;
  }

  void on_cache_line_event(std::uint64_t line, DcacheEvent ev) {
    if (ev == DcacheEvent::kHit) return;
    if (csr_.monitoring(line, cfg_.dcache_line_bytes)) {
      csr_.on_monitored_line_change();
    }
  }

  // ------------------------------------------------------------- stages --
  void begin_cycle() {
    brupdate_valid_ = false;
    brupdate_mispredict_ = false;
    commit_valid_ = false;
    commit_inst_ = 0;
    commit_rd_ = 0;
    tainted_access_ = false;
  }

  void retire(RunResult& res) {
    for (unsigned n = 0; n < cfg_.retire_width; ++n) {
      if (rob_count_ == 0) return;
      RobEntry& head = rob_[rob_head_];
      if (!head.valid || !head.done) return;
      if (head.is_ctrl && !head.resolved) return;
      if (!head.squashed) {
        commit(head, res);
        if (halted_) return;
      }
      head.valid = false;
      rob_head_ = rob_next(rob_head_);
      --rob_count_;
    }
  }

  void commit(RobEntry& e, RunResult& res) {
    CommitRecord rec;
    rec.cycle = cycle_;
    rec.pc = e.pc;
    rec.inst = e.dec.raw;
    if (e.writes_rd && e.dec.rd != 0) {
      rename_.commit_free(e.old_phys);
      rec.writes_rd = true;
      rec.rd = e.dec.rd;
    }
    if (e.is_store) {
      dcache_.store(e.mem_addr, e.mem_size, e.store_value);
      rec.is_store = true;
      rec.store_addr = e.mem_addr;
      res.coverage.branch("lsu.store_mapped",
                          mem_.data_mapped(e.mem_addr, e.mem_size));
    }
    if (e.writes_csr) {
      csr_.write(e.csr_addr, e.csr_wval);
      rec.writes_csr = true;
      rec.csr = e.csr_addr;
    }
    if (e.is_halt) halted_ = true;
    commit_valid_ = true;
    commit_pc_ = e.pc;
    commit_inst_ = e.dec.raw;
    commit_rd_ = e.writes_rd ? e.dec.rd : 0;
    ++res.instructions_committed;
    res.commits.push_back(rec);
  }

  void execute_and_resolve(RunResult& res) {
    // Oldest-first scan so an older misprediction squashes younger work
    // before that work writes back.
    std::vector<RobEntry*> order;
    for (auto& e : rob_) {
      if (e.valid && !e.done) order.push_back(&e);
    }
    std::sort(order.begin(), order.end(),
              [](const RobEntry* a, const RobEntry* b) { return a->seq < b->seq; });
    for (RobEntry* e : order) {
      if (e->squashed || e->done) continue;
      if (cycle_ < e->ready_cycle) continue;
      if (e->is_ctrl) {
        resolve_control(*e, res);
      } else {
        writeback(*e);
      }
    }
  }

  void writeback(RobEntry& e) {
    if (e.writes_rd && e.dec.rd != 0) {
      rename_.prf_write(e.new_phys, e.result);
      prf_ready_[e.new_phys] = true;
      prf_taint_[e.new_phys] = e.result_tainted;
      exec_result_ = e.result;
    }
    e.done = true;
  }

  void resolve_control(RobEntry& e, RunResult& res) {
    e.resolved = true;
    e.done = true;
    if (e.unsafe) --unsafe_count_;
    brupdate_valid_ = true;
    e.mispredicted = e.actual_next != e.pred_next;
    res.coverage.branch("rob.resolve_mispredict", e.mispredicted);

    // Train the predictor with the true outcome (wrong-path training of
    // other branches already happened — and persists: the v2 surface).
    if (riscv::is_branch(e.dec.op)) {
      bp_.update_branch(e.pc, e.actual_taken,
                        e.pc + static_cast<std::uint64_t>(e.dec.imm));
    } else {
      bp_.update_indirect(e.pc, e.actual_next);
    }
    if (e.writes_rd && e.dec.rd != 0) {
      rename_.prf_write(e.new_phys, e.result);
      prf_ready_[e.new_phys] = true;
      prf_taint_[e.new_phys] = false;
    }
    if (!e.mispredicted) {
      rename_.release_checkpoint(entry_slot(e));
      return;
    }
    brupdate_mispredict_ = true;
    const bool suppress = cfg_.vuln.zenbleed_emulation &&
                          csr_.read(csr::kZenbleedEn) != 0;
    res.coverage.condition("rename.rollback_suppressed", suppress);
    squash_younger(e.seq, suppress);
    rename_.rollback(entry_slot(e), suppress);
    fetch_pc_ = e.actual_next;
    fetch_stalled_ = false;  // a wrong-path trap no longer blocks fetch
  }

  void squash_younger(std::uint64_t branch_seq, bool suppress) {
    for (auto& e : rob_) {
      if (!e.valid || e.squashed || e.seq <= branch_seq) continue;
      e.squashed = true;
      e.done = true;
      if (e.unsafe && !e.resolved) {
        rename_.release_checkpoint(entry_slot(e));
        e.resolved = true;
        --unsafe_count_;
      }
      if (e.writes_rd && e.dec.rd != 0) {
        if (!suppress) {
          rename_.squash_free(e.new_phys);
        }
        // The register must not wedge consumers that already renamed it.
        prf_ready_[e.new_phys] = true;
      }
    }
  }

  void issue(RunResult& res) {
    if (halted_ || rob_full() || fetch_stalled_) return;
    const std::uint32_t word = mem_.fetch(fetch_pc_);
    const DecodedInst& dec = decode_at(fetch_pc_, word);
    res.coverage.branch("decode.valid", dec.valid());

    if (!dec.valid()) {
      // Illegal instruction: occupies a slot; committing one halts the
      // core (trap model). Wrong-path illegals get squashed as usual.
      // Fetch must not run past a pending trap.
      RobEntry& e = alloc_entry(dec);
      e.ready_cycle = cycle_ + 1;
      e.is_halt = true;
      fetch_stalled_ = true;
      return;
    }

    // Serializing instructions (CSR/FENCE/ECALL/EBREAK) issue alone.
    const bool serializing = riscv::is_csr(dec.op) || dec.op == Op::kFence ||
                             dec.op == Op::kEcall || dec.op == Op::kEbreak;
    if (serializing && rob_count_ != 0) return;  // stall until drained

    // Source readiness (in-order issue stalls on RAW hazards).
    const bool needs_rs1 = uses_rs1(dec);
    const bool needs_rs2 = uses_rs2(dec);
    const PhysReg p1 = rename_.map(dec.rs1);
    const PhysReg p2 = rename_.map(dec.rs2);
    if ((needs_rs1 && !prf_ready_[p1]) || (needs_rs2 && !prf_ready_[p2])) {
      return;  // stall
    }
    const std::uint64_t v1 = dec.rs1 == 0 ? 0 : rename_.prf(p1);
    const std::uint64_t v2 = dec.rs2 == 0 ? 0 : rename_.prf(p2);
    const bool t1 = dec.rs1 != 0 && prf_taint_[p1];
    const bool t2 = dec.rs2 != 0 && prf_taint_[p2];

    // Store-to-load hazard: loads wait for older in-flight stores to the
    // same bytes to drain (memory is updated at commit).
    if (riscv::is_load(dec.op) &&
        store_overlap(v1 + static_cast<std::uint64_t>(dec.imm),
                      riscv::access_size(dec.op))) {
      return;  // stall
    }

    const bool in_window = any_unsafe();
    RobEntry& e = alloc_entry(dec);

    switch (riscv::format_of(dec.op)) {
      case riscv::Format::kR:
      case riscv::Format::kU:
        issue_alu(e, v1, v2, t1 || t2);
        break;
      case riscv::Format::kI:
        if (riscv::is_load(dec.op)) {
          issue_load(e, v1, t1, in_window, res);
        } else if (dec.op == Op::kJalr) {
          issue_jalr(e, v1);
        } else {
          issue_alu(e, v1, static_cast<std::uint64_t>(dec.imm), t1);
        }
        break;
      case riscv::Format::kS:
        issue_store(e, v1, v2, res);
        break;
      case riscv::Format::kB:
        issue_branch(e, v1, v2, res);
        break;
      case riscv::Format::kJ:
        issue_jal(e);
        break;
      case riscv::Format::kCsr:
      case riscv::Format::kCsrImm:
        issue_csr(e, v1, res);
        break;
      case riscv::Format::kSys:
        e.ready_cycle = cycle_ + 1;
        e.is_halt = dec.op == Op::kEcall || dec.op == Op::kEbreak;
        if (e.is_halt) {
          fetch_stalled_ = true;  // fetch must not run past a pending trap
        } else {
          fetch_pc_ += 4;
        }
        break;
    }
  }

  RobEntry& alloc_entry(const DecodedInst& dec) {
    RobEntry& e = rob_[rob_tail_];
    e = RobEntry{};
    e.valid = true;
    e.seq = ++seq_;
    e.pc = fetch_pc_;
    e.dec = dec;
    rob_tail_ = rob_next(rob_tail_);
    ++rob_count_;
    return e;
  }

  void allocate_rd(RobEntry& e) {
    if (e.dec.rd == 0) return;
    PhysReg np = 0, op = 0;
    if (!rename_.allocate(e.dec.rd, np, op)) {
      // Free list exhausted (possible after heavy Zenbleed leakage):
      // degrade to a no-op write so the pipeline cannot deadlock.
      return;
    }
    e.writes_rd = true;
    e.new_phys = np;
    e.old_phys = op;
    prf_ready_[np] = false;
  }

  void issue_alu(RobEntry& e, std::uint64_t a, std::uint64_t b, bool taint) {
    allocate_rd(e);
    e.result = eval_alu(e.dec, a, b);
    if (e.dec.op == Op::kAuipc) {
      e.result = e.pc + static_cast<std::uint64_t>(e.dec.imm);
    }
    e.result_tainted = taint;
    unsigned latency = 1;
    if (e.dec.op == Op::kMul || e.dec.op == Op::kMulh) latency = cfg_.mul_latency;
    if (e.dec.op == Op::kDiv || e.dec.op == Op::kDivu ||
        e.dec.op == Op::kRem || e.dec.op == Op::kRemu) {
      latency = cfg_.div_latency;
    }
    e.ready_cycle = cycle_ + latency;
    exec_result_ = e.result;
    fetch_pc_ += 4;
  }

  void issue_load(RobEntry& e, std::uint64_t base, bool addr_taint,
                  bool in_window, RunResult& res) {
    allocate_rd(e);
    const std::uint64_t va = base + static_cast<std::uint64_t>(e.dec.imm);
    std::uint64_t pa = va;
    const bool tlb_hit = tlb_.translate(va, pa);
    res.coverage.branch("tlb.hit", tlb_hit);
    lsu_addr_ = pa;
    e.mem_addr = pa;
    e.mem_size = riscv::access_size(e.dec.op);

    // The cache access happens NOW — speculatively. Fills and evictions
    // caused here persist even if this load is squashed.
    std::uint64_t raw = 0;
    const bool hit = dcache_.load(pa, e.mem_size, raw);
    res.coverage.branch("dcache.hit", hit);
    res.coverage.fsm("dcache.state", hit ? 0 : 1);
    lsu_load_data_ = raw;
    e.result = extend_load(e.dec.op, raw);
    // Taint: speculatively loaded data, or data reached through a tainted
    // (speculative-load-derived) address — the Spectre gadget signature.
    e.result_tainted = in_window;
    if (addr_taint && in_window) {
      tainted_access_ = true;
      res.coverage.condition("lsu.tainted_spec_access", true);
    }
    e.ready_cycle =
        cycle_ + (hit ? cfg_.load_hit_latency : cfg_.load_miss_latency);
    fetch_pc_ += 4;
  }

  void issue_store(RobEntry& e, std::uint64_t base, std::uint64_t value,
                   RunResult& res) {
    const std::uint64_t va = base + static_cast<std::uint64_t>(e.dec.imm);
    std::uint64_t pa = va;
    const bool tlb_hit = tlb_.translate(va, pa);
    res.coverage.branch("tlb.hit", tlb_hit);
    lsu_addr_ = pa;
    e.is_store = true;
    e.mem_addr = pa;
    e.mem_size = riscv::access_size(e.dec.op);
    e.store_value = value;
    e.ready_cycle = cycle_ + 1;  // memory effect deferred to commit
    fetch_pc_ += 4;
  }

  void issue_branch(RobEntry& e, std::uint64_t a, std::uint64_t b,
                    RunResult& res) {
    const Prediction pred = bp_.predict_branch(e.pc);
    res.coverage.branch("bp.pred_taken", pred.taken);
    const std::uint64_t taken_target =
        e.pc + static_cast<std::uint64_t>(e.dec.imm);
    e.is_ctrl = true;
    e.unsafe = true;
    ++unsafe_count_;
    e.pred_taken = pred.taken;
    e.pred_next = pred.taken ? taken_target : e.pc + 4;
    e.actual_taken = branch_taken(e.dec.op, a, b);
    e.actual_next = e.actual_taken ? taken_target : e.pc + 4;
    e.ready_cycle = cycle_ + cfg_.branch_resolve_latency;
    rename_.checkpoint(entry_slot(e));
    fetch_pc_ = e.pred_next;
  }

  void issue_jal(RobEntry& e) {
    allocate_rd(e);
    e.result = e.pc + 4;
    e.ready_cycle = cycle_ + 1;
    if (e.dec.rd == 1) bp_.ras_push(e.pc + 4);
    fetch_pc_ = e.pc + static_cast<std::uint64_t>(e.dec.imm);
  }

  void issue_jalr(RobEntry& e, std::uint64_t base) {
    allocate_rd(e);
    e.result = e.pc + 4;
    e.is_ctrl = true;
    e.unsafe = true;
    ++unsafe_count_;
    e.actual_next = (base + static_cast<std::uint64_t>(e.dec.imm)) & ~1ULL;
    // Return prediction via RAS; other indirects via BTB; fall back to +4.
    std::uint64_t predicted = e.pc + 4;
    if (e.dec.rd == 0 && e.dec.rs1 == 1) {
      const std::uint64_t ras = bp_.ras_pop();
      if (ras != 0) predicted = ras;
    } else {
      const Prediction pred = bp_.predict_indirect(e.pc);
      if (pred.btb_hit) predicted = pred.target;
    }
    e.pred_next = predicted;
    e.ready_cycle = cycle_ + cfg_.jalr_resolve_latency;
    rename_.checkpoint(entry_slot(e));
    if (e.dec.rd == 1) bp_.ras_push(e.pc + 4);
    fetch_pc_ = e.pred_next;
  }

  void issue_csr(RobEntry& e, std::uint64_t rs1_value, RunResult& res) {
    allocate_rd(e);
    const std::uint64_t old = csr_.read(e.dec.csr);
    res.coverage.condition("csr.implemented", csr_.implemented(e.dec.csr));
    e.result = old;
    const std::uint64_t operand =
        riscv::format_of(e.dec.op) == riscv::Format::kCsrImm
            ? e.dec.zimm
            : rs1_value;
    bool write = false;
    std::uint64_t next = old;
    switch (e.dec.op) {
      case Op::kCsrrw: case Op::kCsrrwi:
        next = operand;
        write = true;
        break;
      case Op::kCsrrs: case Op::kCsrrsi:
        next = old | operand;
        write = operand != 0;
        break;
      case Op::kCsrrc: case Op::kCsrrci:
        next = old & ~operand;
        write = operand != 0;
        break;
      default: break;
    }
    if (write && csr_.implemented(e.dec.csr)) {
      e.writes_csr = true;
      e.csr_addr = e.dec.csr;
      e.csr_wval = next;
    }
    e.ready_cycle = cycle_ + 1;
    fetch_pc_ += 4;
  }

  static bool uses_rs1(const DecodedInst& d) {
    switch (riscv::format_of(d.op)) {
      case riscv::Format::kR: case riscv::Format::kS: case riscv::Format::kB:
        return true;
      case riscv::Format::kI:
        return true;
      case riscv::Format::kCsr:
        return true;
      default:
        return false;
    }
  }
  static bool uses_rs2(const DecodedInst& d) {
    switch (riscv::format_of(d.op)) {
      case riscv::Format::kR: case riscv::Format::kS: case riscv::Format::kB:
        return true;
      default:
        return false;
    }
  }

  // ----------------------------------------------------------- snapshot --
  /// Per-cycle trace capture. Delta-native recording: each recorded signal is compared
  /// against the trace's live previous-value array and stored only as a
  /// (cycle, signal, value) change event; toggle coverage falls out of
  /// the same comparison.
  ///
  /// The hot (non-dense) path walks only the dirty set — the signal ids
  /// components marked as written this cycle plus the always-dirty base
  /// set — instead of sweeping all ~300 schema signals. A conservative
  /// superset dirty set is exact: re-recording an unchanged value appends
  /// no event, so the stream is byte-identical to a full sweep as long as
  /// every signal that DID change is marked (the component author's
  /// obligation, see ARCHITECTURE.md). The first captured tick seeds the
  /// live array with a full sweep.
  void capture(RunResult& res) {
    const bool first = res.trace.empty();
    res.trace.begin_cycle(cycle_);
    const RobEntry* spec = unsafe_count_ != 0 ? oldest_unsafe() : nullptr;
    if (res.dense_trace) {
      // Dense-reference path (differential suite only): the oracle needs
      // every signal's value, so the full sweep — and the per-cycle
      // Snapshot materialization — live here, off the hot path.
      snapshot::Snapshot dense;
      dense.cycle = cycle_;
      dense.values.resize(descs_.size());
      std::uint64_t toggles = 0;
      for (std::size_t i = 0; i < descs_.size(); ++i) {
        const std::uint64_t v = value_of(descs_[i], spec);
        toggles += res.trace.record(static_cast<snapshot::SignalId>(i), v);
        dense.values[i] = v;
      }
      if (!first) res.coverage.toggles(toggles);
      res.dense_trace->push(std::move(dense));
    } else if (first) {
      for (std::size_t i = 0; i < descs_.size(); ++i) {
        res.trace.record(static_cast<snapshot::SignalId>(i),
                         value_of(descs_[i], spec));
      }
    } else {
      const std::uint64_t toggles = res.trace.record_dirty(
          dirty_.words(),
          [this, spec](std::size_t id) { return value_of(descs_[id], spec); });
      res.coverage.toggles(toggles);
    }
    dirty_.reset_to_base();
  }

  std::uint64_t value_of(const SigDesc& d, const RobEntry* spec) const {
    switch (d.kind) {
      case SigKind::kFetchPc: return fetch_pc_;
      case SigKind::kRfX: return rename_.arch_value(d.i);
      case SigKind::kCsr: return csr_.value_at(d.i);
      case SigKind::kMapTable: return rename_.maptable_raw(d.i);
      case SigKind::kFreeCount: return rename_.free_count();
      case SigKind::kPrf: return rename_.prf(static_cast<PhysReg>(d.i));
      case SigKind::kRobHead: return rob_head_;
      case SigKind::kRobTail: return rob_tail_;
      case SigKind::kRobCount: return rob_count_;
      case SigKind::kRobUnsafe: return spec != nullptr;
      case SigKind::kRobSpecPc: return spec ? spec->pc : 0;
      case SigKind::kRobSpecInst: return spec ? spec->dec.raw : 0;
      case SigKind::kBrupdValid: return brupdate_valid_;
      case SigKind::kBrupdMispredict: return brupdate_mispredict_;
      case SigKind::kCommitValid: return commit_valid_;
      case SigKind::kCommitPc: return commit_pc_;
      case SigKind::kCommitInst: return commit_inst_;
      case SigKind::kCommitRd: return commit_rd_;
      case SigKind::kBpGhist: return bp_.ghist();
      case SigKind::kBpPht: {
        // Pack 32 2-bit counters per word.
        std::uint64_t packed = 0;
        for (unsigned k = 0; k < 32; ++k) {
          const unsigned idx = d.i * 32 + k;
          if (idx < bp_.pht().size()) {
            packed |= static_cast<std::uint64_t>(bp_.pht()[idx] & 3)
                      << (2 * k);
          }
        }
        return packed;
      }
      case SigKind::kBtbTag: return bp_.btb_tags()[d.i];
      case SigKind::kBtbTarget: return bp_.btb_targets()[d.i];
      case SigKind::kRas: return bp_.ras()[d.i];
      case SigKind::kRasTop: return bp_.ras_top();
      case SigKind::kDcValid: return dcache_.valid(d.i, d.j);
      case SigKind::kDcTag: return dcache_.tag(d.i, d.j);
      case SigKind::kDcData: return dcache_.data_digest(d.i, d.j);
      case SigKind::kDcLru: return dcache_.lru(d.i);
      case SigKind::kTlbValid: return tlb_.valid(d.i);
      case SigKind::kTlbVpn: return tlb_.vpn(d.i);
      case SigKind::kTlbPpn: return tlb_.ppn(d.i);
      case SigKind::kExecResult: return exec_result_;
      case SigKind::kLsuAddr: return lsu_addr_;
      case SigKind::kLsuLoadData: return lsu_load_data_;
      case SigKind::kLsuTaintedAccess: return tainted_access_;
    }
    return 0;
  }

  /// Slot index of an entry (used as the rename checkpoint key).
  unsigned entry_slot(const RobEntry& e) const {
    return static_cast<unsigned>(&e - rob_.data());
  }

  const CoreConfig& cfg_;
  const std::vector<SigDesc>& descs_;
  const SignalLayout& layout_;
  const snapshot::SignalDb& db_;

  Memory mem_;
  BranchPredictor bp_;
  CsrFile csr_;
  RenameStage rename_;
  Tlb tlb_;
  Dcache dcache_;

  std::vector<RobEntry> rob_;
  unsigned rob_head_ = 0;
  unsigned rob_tail_ = 0;
  unsigned rob_count_ = 0;
  unsigned unsafe_count_ = 0;  ///< open speculative windows (see any_unsafe)
  std::uint64_t seq_ = 0;

  std::vector<bool> prf_ready_;
  std::vector<bool> prf_taint_;

  std::uint64_t fetch_pc_ = 0;
  std::uint64_t cycle_ = 0;
  bool halted_ = false;
  bool fetch_stalled_ = false;  ///< pending trap (ECALL/EBREAK/illegal)

  riscv::DecodedProgram& decode_buf_;  ///< simulator-owned scratch buffer
  DecodedInst scratch_dec_;            ///< off-image decode_at() result

  /// The capture engine's change list: components mark into it as they
  /// write (bound in the constructor), capture() drains it every cycle.
  DirtySet dirty_;

  // Pulse / bus state for snapshots.
  bool brupdate_valid_ = false;
  bool brupdate_mispredict_ = false;
  bool commit_valid_ = false;
  std::uint64_t commit_pc_ = 0;
  std::uint64_t commit_inst_ = 0;
  std::uint64_t commit_rd_ = 0;
  bool tainted_access_ = false;
  std::uint64_t exec_result_ = 0;
  std::uint64_t lsu_addr_ = 0;
  std::uint64_t lsu_load_data_ = 0;
};

}  // namespace specure::sim::detail
