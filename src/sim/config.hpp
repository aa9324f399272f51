// Configuration for the MiniBOOM processor model: microarchitectural
// parameters plus the vulnerability-emulation switches from the paper's
// §4.2 ((M)WAIT and Zenbleed) and the inherent speculative features
// (Spectre v1/v2 surface exists whenever speculation is on).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace specure::sim {

struct VulnConfig {
  /// Emulate the (M)WAIT vulnerability: three CSRs (mwait_en,
  /// monitor_addr, mwait_timer) and a data-cache hook that clears the
  /// timer when the monitored line changes — including changes caused by
  /// *speculative* accesses (the root cause).
  bool mwait_emulation = false;

  /// Emulate Zenbleed: when the zenbleed_en CSR is non-zero, the rename
  /// map-table checkpoint is NOT restored on misprediction rollback, so
  /// speculative register-file changes persist architecturally.
  bool zenbleed_emulation = false;
};

struct CoreConfig {
  // Pipeline shape.
  unsigned rob_entries = 16;
  unsigned phys_regs = 128;
  unsigned retire_width = 2;

  // Timing (cycles).
  unsigned branch_resolve_latency = 20;  ///< issue -> resolution
  unsigned jalr_resolve_latency = 16;
  unsigned load_hit_latency = 2;
  unsigned load_miss_latency = 12;
  unsigned mul_latency = 4;
  unsigned div_latency = 10;

  // Branch predictor.
  unsigned ghist_bits = 8;     ///< gshare history length
  unsigned pht_entries = 64;   ///< 2-bit counters
  unsigned btb_entries = 8;
  unsigned ras_entries = 4;

  // L1 data cache.
  unsigned dcache_sets = 8;
  unsigned dcache_ways = 2;
  unsigned dcache_line_bytes = 16;

  // TLB.
  unsigned tlb_entries = 4;
  unsigned page_bits = 12;

  // Execution limits.
  /// The hard ceiling: a run that has neither halted nor gone quiescent
  /// by this cycle stops here (RunResult::halted_clean stays false).
  std::uint64_t max_cycles = 4096;

  /// Quiescence horizon. A run also ends, before the ceiling, once it
  /// has gone this many cycles without committing a PC it had never
  /// committed before and without an architectural leak event (a
  /// Zenbleed-suppressed rollback, a monitored-line clear of the (M)WAIT
  /// timer), while no (M)WAIT countdown is armed. Such a run is a prefix
  /// of the ceiling-only run and reports RunResult::quiescent. 0 turns
  /// the rule off: the ceiling-only run, kept as the differential oracle.
  /// Deliberately a CoreConfig field only, with no spec key.
  std::uint64_t quiet_cycles = 2048;

  // MWAIT emulation: countdown start value loaded when mwait_en is armed.
  std::uint64_t mwait_timer_start = 1024;

  /// Debug/verification: also record the dense reference trace (one full
  /// Snapshot per cycle) alongside the delta trace. Costs the old
  /// O(cycles × signals) memory — used by the trace differential suite
  /// and the dense-vs-delta bench, never by campaigns.
  bool record_dense_trace = false;

  VulnConfig vuln;
};

/// Negative-control configuration: branches resolve the cycle after they
/// issue, so no younger instruction ever executes under an open window —
/// an in-order-equivalent core. Used to show the entire finding surface
/// vanishes without speculation (the root-cause sanity check).
inline CoreConfig no_speculation_config() {
  CoreConfig cfg;
  cfg.branch_resolve_latency = 1;
  cfg.jalr_resolve_latency = 1;
  return cfg;
}

/// Validate the microarchitectural parameters against what the model
/// actually supports. Returns one actionable message per problem; empty
/// means the configuration is usable. (The campaign-spec layer folds these
/// into CampaignSpec::validate.)
std::vector<std::string> validate_config(const CoreConfig& cfg);

/// Core-level preset registry ("default", "no-spec", "mwait", "zenbleed",
/// "full"). Returns false when `name` is unknown, leaving `out` untouched.
bool lookup_core_preset(std::string_view name, CoreConfig& out);

/// Names accepted by lookup_core_preset, in registry order.
std::vector<std::string> core_preset_names();

}  // namespace specure::sim
