// CampaignSpec — the declarative description of one fuzzing campaign.
//
// A spec bundles everything that determines a campaign's outcome (core
// preset + overrides, fuzzer options, feedback mode, detector set, RNG
// seed, batch shape) plus its budgets (iteration / vulnerability /
// wall-clock / coverage-plateau) into one serializable value, so a whole
// experiment is one file and the paper's evaluation matrix is a handful
// of named presets:
//
//   CampaignSpec spec = CampaignSpec::preset("zenbleed");
//   spec.set("rob_entries", "32");            // key=value overrides
//   spec.budget.iterations = 5000;
//   spec.save("zenbleed_rob32.toml");         // TOML subset, reloadable
//   CampaignResult result = Session(spec).run();
//
// Every field that can affect the campaign result is covered by the flat
// key table (CampaignSpec::keys), which backs four things at once: CLI
// key=value overrides, the TOML-subset load/save, the resolved-spec echo
// embedded in reports, and spec equality. A spec saved with save() reloads
// to a bit-identical campaign result at a fixed seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/result_merger.hpp"
#include "core/vuln_detect.hpp"
#include "fuzz/corpus.hpp"
#include "ift/pdlc.hpp"
#include "sim/config.hpp"

namespace specure::core {

/// Thrown for every spec-layer failure: unknown preset or key, value
/// parse error, failed validation, malformed TOML, I/O error. The message
/// is always actionable (names the key, the offending value, the
/// accepted form, and a "did you mean" hint where one exists).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Campaign budgets: the composable stop conditions a Session enforces.
/// Every budget with value 0 is disabled (except iterations).
struct CampaignBudget {
  std::uint64_t iterations = 1000;  ///< hard iteration cap (always on)
  std::uint64_t max_vulns = 0;      ///< stop after N distinct findings
  double max_seconds = 0;           ///< wall-clock cap (non-deterministic)
  /// Stop once the feedback metric (LP coverage, or code-coverage points
  /// under codecov feedback) has not grown for this many iterations.
  std::uint64_t plateau = 0;
};

struct PresetInfo {
  std::string name;
  std::string description;
};

/// Post-campaign triage depth. kOn minimizes every confirmed finding and
/// fires on_finding_minimized events; kFull additionally writes one repro
/// bundle (repro.S / repro.toml / repro.vcd) per unique signature into
/// CampaignSpec::triage_out.
enum class TriageMode : std::uint8_t { kOff, kOn, kFull };

std::string_view triage_mode_name(TriageMode mode);

/// Campaign executor strategy. Both modes implement the same sliding-
/// window generation contract (job k is generated from the merged state
/// through iteration k - batch_size), so they produce bit-identical
/// CampaignResults at a fixed seed; they differ only in wall-clock
/// behaviour. kWindow overlaps generation, simulation and merging with
/// no global barrier; kBarrier executes one window at a time with a
/// convoy barrier between execute and merge — kept as the reference
/// executor the pipelined path is differentially pinned against.
enum class PipelineMode : std::uint8_t { kWindow, kBarrier };

std::string_view pipeline_mode_name(PipelineMode mode);

/// Unread; kept only for CampaignSpec::tier (see there).
enum class TierMode : std::uint8_t { kDetailed, kFast };

struct SpecField {
  std::string key;      ///< flat override key, e.g. "rob_entries"
  std::string section;  ///< TOML section: "", "core", "fuzzer", ...
  std::string value;    ///< resolved value rendered as text
  bool quoted = false;  ///< string-typed (quoted in TOML / JSON)
};

struct CampaignSpec {
  std::string name = "default";   ///< scenario label used in reports
  sim::CoreConfig core;
  fuzz::FuzzerOptions fuzzer;
  FeedbackMode feedback = FeedbackMode::kLeakagePath;
  DetectorOptions detector;
  LpPolicy lp_policy = LpPolicy::kAllSignals;
  ift::PdlcOptions pdlc;
  std::uint64_t rng_seed = 1;
  std::size_t mst_sample_rows = 16;
  /// Simulation worker count; 0 = all hardware threads. Never affects
  /// campaign results, only wall-clock time.
  std::size_t jobs = 0;
  /// The sliding-window width W: job k is generated from the merged
  /// campaign state through iteration k - W, so at most W jobs are ever
  /// in flight (see core/session.hpp). Raising W trades corpus-feedback
  /// latency for parallelism; 1 reproduces the classic serial
  /// generate -> simulate -> feed-back loop exactly.
  std::size_t batch_size = 32;
  /// Executor strategy: window (pipelined, default) | barrier (the
  /// batch-synchronous reference executor). Never affects campaign
  /// results — both implement the same generation contract — only
  /// wall-clock scaling.
  PipelineMode pipeline = PipelineMode::kWindow;
  // Unread, no spec key: every job runs cold; the benchmark still sets them.
  TierMode tier = TierMode::kFast;
  bool checkpoint = true;
  /// on_progress event cadence in merged iterations; 0 disables.
  std::uint64_t progress_interval = 500;
  /// When non-empty: directory that receives one VCD waveform per
  /// confirmed (deduplicated) vulnerability window, named
  /// <scenario>_vuln_iter<N>_<index>.vcd. Created if missing; Session
  /// probes writability before the campaign starts (SpecError if not).
  /// Deterministic across jobs. Empty = off.
  std::string vcd_out;
  /// Post-campaign finding triage: off | on (minimize + events) | full
  /// (minimize + repro bundles under triage_out). Never perturbs the
  /// CampaignResult — triage runs after the campaign loop finished.
  TriageMode triage = TriageMode::kOff;
  /// Directory that receives the repro bundles when triage = full.
  std::string triage_out = "specure-triage";
  /// When non-empty: path of the durable campaign state file (the resume
  /// frontier, serve/campaign_state format). Written atomically from the
  /// merge strand at `state_interval` cadence and always when the
  /// campaign ends or pauses, so a killed campaign resumes bit-identical
  /// via `specure run --resume FILE`. Empty = off. Wall-clock-only: never
  /// affects the CampaignResult.
  std::string state_out;
  /// Minimum seconds between cadence state writes (state_out). 0 writes
  /// only the final/pause state. Non-deterministic cadence by nature —
  /// but every written state resumes to the same result, so the interval
  /// is wall-clock-only.
  double state_interval = 0;
  /// Per-iteration metrics histograms (queue-wait / execute / merge /
  /// iteration-latency percentiles in `--stats`, bench JSON and the
  /// serve `metrics` verb). Stage counters are always maintained; this
  /// key only gates the per-iteration histogram records. Pure wall-clock
  /// telemetry — never affects the CampaignResult (pinned by the on/off
  /// differential in obs_test).
  bool metrics = true;
  /// When non-empty: write a Chrome trace-event JSON of the most recent
  /// run()'s pipeline spans (generate / queue-wait / execute /
  /// result-wait / merge / vcd-drain) to this path — loadable in Perfetto or
  /// chrome://tracing. Ring-buffered: long campaigns keep the most
  /// recent window of events at bounded memory. Empty = off.
  /// Wall-clock-only: never affects the CampaignResult.
  std::string trace_out;
  CampaignBudget budget;

  // ---- named scenario presets -------------------------------------------
  /// Registry of the paper's evaluation scenarios ("default", "lp",
  /// "codecov", "mwait", "zenbleed", "no-spec", "cache-monitor", "full").
  static const std::vector<PresetInfo>& presets();
  /// Look up a preset by name; throws SpecError with a "did you mean"
  /// hint for unknown names.
  static CampaignSpec preset(std::string_view name);

  // ---- key=value overrides ----------------------------------------------
  /// Set one field from its flat key ("rob_entries", "feedback", ...).
  /// Throws SpecError on unknown keys (with suggestion) or bad values.
  void set(const std::string& key, const std::string& value);
  /// Parse and apply one "key=value" assignment.
  void apply_override(const std::string& assignment);
  /// All known override keys, in declaration order.
  static std::vector<std::string> keys();

  // ---- serialization (TOML subset) --------------------------------------
  /// Every field as (key, section, rendered value). The single source for
  /// to_toml(), the JSON spec echo in reports, and operator==.
  std::vector<SpecField> fields() const;
  std::string to_toml() const;
  /// Parse a spec from the TOML subset written by to_toml(): [section]
  /// headers, key = value lines, "#" comments, quoted strings, integers,
  /// bools. A `preset = "name"` key (anywhere) seeds the spec before the
  /// remaining keys apply. Throws SpecError with a line number.
  static CampaignSpec from_toml(std::istream& in);
  static CampaignSpec from_toml_string(const std::string& text);
  void save(const std::string& path) const;
  static CampaignSpec load(const std::string& path);

  /// Check the spec is runnable; throws SpecError listing every problem.
  void validate() const;

  bool operator==(const CampaignSpec& other) const;
};

std::string_view feedback_mode_name(FeedbackMode mode);
std::string_view lp_policy_name(LpPolicy policy);

}  // namespace specure::core
