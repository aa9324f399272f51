// specure — command-line driver for the library.
//
// Subcommands:
//   specure run [SPEC.toml] [--preset NAME] [key=value ...]
//       Run one campaign from a spec file or a named preset, with
//       key=value overrides (e.g. rob_entries=32 feedback=codecov).
//       --iters/--seed are sugar for iterations=/seed=. --save FILE
//       writes the resolved spec; --dry-run prints it and exits; --json
//       FILE writes the JSON report (spec embedded). Exits 2 on findings.
//   specure sweep --preset A --preset B ... [--spec FILE ...] [key=value ...]
//       Run several scenarios concurrently and print a comparison table
//       (coverage, vulns, iters/sec). Overrides apply to every scenario.
//   specure triage REPORT.json|SPEC.toml [--out DIR] [--jobs N] [--json F]
//       Post-campaign finding triage: minimize every finding down to the
//       smallest program reproducing the same leakage signature and
//       (with --out) write one repro bundle (repro.S / repro.toml /
//       repro.vcd) per unique signature. A .json input is a report from
//       `specure run --json` (campaign skipped, findings triaged
//       directly); a .toml input runs the campaign first. Exits 1 when a
//       finding fails to reproduce or a bundle fails verification.
//   specure presets [--keys]
//       List the named scenario presets (and, with --keys, every
//       key=value override the spec layer accepts).
//   specure offline [--mwait] [--zenbleed] [--dot FILE] [--verilog FILE]
//       Run the offline phase on MiniBOOM; print IFG/PDLC statistics.
//   specure audit FILE.v --top MODULE [--dot FILE]
//       Offline phase over external Verilog: list every PDLC.
//   specure disasm HEXWORD [PC]
//       Decode one instruction word.
//
// Unknown flags, subcommands, spec keys and preset names are rejected
// with a non-zero exit and a "did you mean" hint — nothing is silently
// ignored. Usage errors exit 64; runtime failures exit 1; campaigns that
// found vulnerabilities exit 2 (for CI).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/campaign_spec.hpp"
#include "core/offline.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/sweep.hpp"
#include "core/vuln_detect.hpp"
#include "ift/arch_regs.hpp"
#include "obs/metrics.hpp"
#include "riscv/disasm.hpp"
#include "riscv/program.hpp"
#include "serve/campaign_state.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/structure.hpp"
#include "triage/triage.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace specure;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitFindings = 2;
constexpr int kExitUsage = 64;

// ------------------------------------------------------------ option parser --

struct FlagDef {
  const char* name;
  bool takes_value;
  const char* help;
  bool repeatable = false;  ///< may appear more than once (sweep scenarios)
};

struct Args {
  std::vector<std::string> positional;  ///< non-flag, non-override tokens
  std::vector<std::string> overrides;   ///< key=value tokens, in order
  std::vector<std::pair<std::string, std::string>> options;

  bool has(const std::string& flag) const {
    for (const auto& [k, v] : options) {
      if (k == flag) return true;
    }
    return false;
  }
  std::string get(const std::string& flag,
                  const std::string& fallback = "") const {
    for (const auto& [k, v] : options) {
      if (k == flag) return v;
    }
    return fallback;
  }
  std::vector<std::string> get_all(const std::string& flag) const {
    std::vector<std::string> values;
    for (const auto& [k, v] : options) {
      if (k == flag) values.push_back(v);
    }
    return values;
  }
};

/// Parse argv[first..) against the command's flag table. Returns false
/// (after printing the error and hint) on unknown flags or missing
/// values. `allow_overrides` routes bare key=value tokens to overrides.
bool parse_args(int argc, char** argv, int first,
                const std::vector<FlagDef>& flags, bool allow_overrides,
                Args& args) {
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      if (allow_overrides && token.find('=') != std::string::npos) {
        args.overrides.push_back(token);
      } else {
        args.positional.push_back(token);
      }
      continue;
    }
    // --flag or --flag=value
    std::string name = token;
    std::string inline_value;
    bool has_inline = false;
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
      has_inline = true;
    }
    const FlagDef* def = nullptr;
    for (const FlagDef& f : flags) {
      if (name == f.name) def = &f;
    }
    if (def == nullptr) {
      std::string msg = "unknown flag '" + name + "'";
      std::vector<std::string> names;
      for (const FlagDef& f : flags) names.emplace_back(f.name);
      const std::string hint = util::closest_match(name, names);
      if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
      std::fprintf(stderr, "specure: %s\n", msg.c_str());
      return false;
    }
    if (!def->repeatable && args.has(name)) {
      std::fprintf(stderr,
                   "specure: flag '%s' given more than once\n", name.c_str());
      return false;
    }
    if (def->takes_value) {
      if (has_inline) {
        args.options.emplace_back(name, inline_value);
      } else if (i + 1 < argc) {
        args.options.emplace_back(name, argv[++i]);
      } else {
        std::fprintf(stderr, "specure: flag '%s' needs a value (%s)\n",
                     name.c_str(), def->help);
        return false;
      }
    } else {
      if (has_inline) {
        std::fprintf(stderr, "specure: flag '%s' takes no value\n",
                     name.c_str());
        return false;
      }
      args.options.emplace_back(name, "");
    }
  }
  return true;
}

/// The one reader for numeric arguments: the whole token must be a
/// number in `base` (base 16 also takes a leading 0x) that fits in `bits`
/// bits. Otherwise it names the argument on stderr and returns false; the
/// caller exits kExitUsage.
bool parse_number(const std::string& text, const char* name,
                  std::uint64_t& out, int base = 10, unsigned bits = 64) {
  std::string_view digits = text;
  if (base == 16 && (digits.starts_with("0x") || digits.starts_with("0X"))) {
    digits.remove_prefix(2);
  }
  const char* end = digits.data() + digits.size();
  const auto parsed = std::from_chars(digits.data(), end, out, base);
  if (parsed.ec == std::errc() && parsed.ptr == end &&
      (bits >= 64 || out >> bits == 0)) {
    return true;
  }
  std::fprintf(stderr, "specure: %s: '%s' is not a %s", name, text.c_str(),
               base == 16 ? "hexadecimal number" : "non-negative integer");
  if (bits < 64) std::fprintf(stderr, " of at most %u bits", bits);
  std::fprintf(stderr, "\n");
  return false;
}

// ------------------------------------------------------------- spec helpers --

/// Apply the --iters/--seed sugar plus every key=value override, in order.
void apply_common_overrides(core::CampaignSpec& spec, const Args& args) {
  if (args.has("--iters")) spec.set("iterations", args.get("--iters"));
  if (args.has("--seed")) spec.set("seed", args.get("--seed"));
  if (args.has("--jobs")) spec.set("jobs", args.get("--jobs"));
  if (args.has("--batch")) spec.set("batch", args.get("--batch"));
  for (const std::string& assignment : args.overrides) {
    spec.apply_override(assignment);
  }
}

/// Attach the standard progress/vuln/triage stderr feed to a session.
void attach_console_observers(core::Session& session, bool quiet) {
  if (quiet) return;
  session.on_progress([](const core::ProgressEvent& e) {
    std::fprintf(stderr,
                 "[specure] iter %llu/%llu  lp=%zu  cov=%zu  vulns=%zu\n",
                 static_cast<unsigned long long>(e.iteration),
                 static_cast<unsigned long long>(e.budget_iterations),
                 e.covered_pdlc, e.coverage_points, e.vulns);
  });
  session.on_vuln([](const core::VulnEvent& e) {
    std::fprintf(stderr, "[specure] new finding at iteration %llu: %s\n",
                 static_cast<unsigned long long>(e.iteration),
                 core::finding_key(e.report).c_str());
  });
  session.on_finding_minimized([](const triage::MinimizedEvent& e) {
    if (!e.reproduced) {
      std::fprintf(stderr, "[specure] triage %s: signature did not reproduce\n",
                   e.digest.c_str());
      return;
    }
    std::fprintf(stderr,
                 "[specure] triage %s: %zu -> %zu instructions (%zu probes)%s\n",
                 e.digest.c_str(), e.original_len, e.minimized_len, e.probes,
                 e.bundle_dir.empty()
                     ? ""
                     : (e.verified ? ", bundle verified"
                                   : ", BUNDLE FAILED VERIFICATION"));
  });
}

/// The tail of `run`: text report, --stats block, JSON, exit code.
int report_and_exit_code(const core::CampaignResult& result,
                         const core::CampaignSpec& spec,
                         const core::Session& session, const Args& args) {
  core::write_text_report(std::cout, result, &spec);
  std::printf("\n(jobs: %zu, batch size: %zu)\n", session.resolved_jobs(),
              spec.batch_size);
  if (args.has("--stats")) {
    const core::PipelineStats& stats = session.pipeline_stats();
    std::printf("\nPipeline stages (wall-clock)\n");
    std::printf("  merger: generate %.3fs  merge %.3fs  result-wait %.3fs"
                "  vcd %.3fs\n",
                stats.generate_seconds, stats.merge_seconds,
                stats.result_wait_seconds, stats.vcd_seconds);
    for (std::size_t w = 0; w < stats.workers.size(); ++w) {
      const core::PipelineWorkerStats& ws = stats.workers[w];
      std::printf("  worker %zu: %llu jobs  execute %.3fs  queue-wait %.3fs\n",
                  w, static_cast<unsigned long long>(ws.jobs),
                  ws.execute_seconds, ws.queue_wait_seconds);
    }
    // Run length from the workers' registry lanes: how runs ended
    // (quiescent, or at the max_cycles ceiling), the mean of the
    // cycles-per-run histogram (exact, unlike its log2 percentiles, whose
    // top bucket straddles the ceiling), signal ids the capture walked
    // per cycle and windows extracted per run. The histogram is
    // registered unless the spec set metrics=false.
    const obs::Snapshot snap = session.metrics_snapshot();
    if (const obs::HistogramSnapshot* cycles =
            snap.histogram("hist/run_cycles");
        cycles != nullptr && cycles->count > 0) {
      const auto runs = static_cast<double>(cycles->count);
      std::printf("  sim: %llu runs: %llu quiescent, %llu capped at "
                  "max_cycles=%llu  cycles/run mean %.0f  dirty ids/cycle "
                  "%.1f  windows/run mean %.1f\n",
                  static_cast<unsigned long long>(cycles->count),
                  static_cast<unsigned long long>(
                      snap.counter_value("sim/quiescent_runs")),
                  static_cast<unsigned long long>(
                      snap.counter_value("sim/capped_runs")),
                  static_cast<unsigned long long>(spec.core.max_cycles),
                  static_cast<double>(cycles->sum) / runs,
                  cycles->sum > 0
                      ? static_cast<double>(
                            snap.counter_value("sim/dirty_ids")) /
                            static_cast<double>(cycles->sum)
                      : 0.0,
                  static_cast<double>(snap.counter_value("mst/windows")) /
                      runs);
    }
    // Latency percentiles (log2 histogram estimates).
    const auto percentile_row = [&snap](const char* label,
                                        const char* name) {
      const obs::HistogramSnapshot* h = snap.histogram(name);
      if (h == nullptr || h->count == 0) return;
      std::printf("    %-11s p50 %9.3fms  p95 %9.3fms  p99 %9.3fms"
                  "  (%llu samples)\n",
                  label, h->percentile(50) / 1e6, h->percentile(95) / 1e6,
                  h->percentile(99) / 1e6,
                  static_cast<unsigned long long>(h->count));
    };
    if (snap.histogram("hist/execute_ns") != nullptr) {
      std::printf("  latency percentiles\n");
      percentile_row("execute", "hist/execute_ns");
      percentile_row("queue-wait", "hist/queue_wait_ns");
      percentile_row("result-wait", "hist/result_wait_ns");
      percentile_row("iteration", "hist/iter_latency_ns");
    }
  }
  if (const triage::TriageReport* triaged = session.triage_report()) {
    std::printf("\nTriage (%zu findings, %zu probes, %.3fs)\n",
                triaged->findings.size(), triaged->probes_total,
                triaged->seconds);
    triage::write_triage_table(std::cout, *triaged);
  }
  if (args.has("--json")) {
    std::ofstream json(args.get("--json"));
    if (!json) {
      std::fprintf(stderr, "specure: cannot open %s\n",
                   args.get("--json").c_str());
      return kExitError;
    }
    core::write_json_report(json, result, 64, &spec);
    std::printf("\nJSON report written to %s\n", args.get("--json").c_str());
  }
  return result.vulns.empty() ? kExitOk : kExitFindings;
}

// ----------------------------------------------------- SIGINT/SIGTERM stop --

/// The Session the signal handler pauses (set only while run() executes).
std::atomic<core::Session*> g_signal_session{nullptr};
std::atomic<int> g_signal_count{0};

/// First SIGINT/SIGTERM: ask the campaign to pause at its next merge
/// boundary (request_pause is one relaxed atomic store — async-signal-
/// safe). Second signal: force-quit with the conventional 128+SIGINT.
extern "C" void on_stop_signal(int) {
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
    _exit(130);
  }
  if (core::Session* session =
          g_signal_session.load(std::memory_order_relaxed)) {
    session->request_pause();
  }
  const char msg[] =
      "\n[specure] stopping at the next merge boundary (again to force-quit)\n";
  const ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
  (void)ignored;
}

void install_stop_handler() {
  struct sigaction sa {};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// ---------------------------------------------------------------- commands --

const std::vector<FlagDef> kRunFlags = {
    {"--preset", true, "named scenario preset (see `specure presets`)"},
    {"--iters", true, "iteration budget (sugar for iterations=N)"},
    {"--seed", true, "campaign RNG seed (sugar for seed=S)"},
    {"--jobs", true, "worker threads, 0 = all hardware (sugar for jobs=N)"},
    {"--batch", true, "batch size (sugar for batch=B)"},
    {"--json", true, "write the JSON report (spec embedded) to FILE"},
    {"--save", true, "write the resolved spec as TOML to FILE"},
    {"--vcd-out", true,
     "write a VCD waveform per confirmed vulnerability window into DIR"},
    {"--state-out", true,
     "write the durable campaign state to FILE (sugar for state_out=)"},
    {"--state-interval", true,
     "seconds between cadence state writes, 0 = only the final/pause "
     "state (sugar for state_interval=)"},
    {"--resume", true, "resume a campaign from a state FILE"},
    {"--trace-out", true,
     "write a Chrome/Perfetto trace of the pipeline to FILE "
     "(sugar for trace_out=)"},
    {"--dry-run", false, "print the resolved spec and exit"},
    {"--quiet", false, "suppress the progress/finding feed"},
    {"--stats", false, "print per-stage pipeline timing after the campaign"},
};

/// A --vcd-out directory must exist (or be creatable) and be writable
/// before the campaign starts — a late ENOENT would waste the whole run.
bool vcd_dir_writable(const std::string& dir) {
  return util::ensure_dir_writable(dir).empty();
}

int cmd_run(const Args& args) {
  if (args.positional.size() > 1) {
    std::fprintf(stderr, "specure: run takes at most one spec file, got %zu\n",
                 args.positional.size());
    return kExitUsage;
  }
  if (!args.positional.empty() && args.has("--preset")) {
    std::fprintf(stderr,
                 "specure: give either a spec file or --preset, not both\n");
    return kExitUsage;
  }
  const bool resuming = args.has("--resume");
  if (resuming && (!args.positional.empty() || args.has("--preset"))) {
    std::fprintf(stderr,
                 "specure: --resume carries its own spec — drop the spec "
                 "file/--preset (result-neutral overrides still apply)\n");
    return kExitUsage;
  }
  serve::CampaignState state;
  if (resuming) state = serve::load_state_file(args.get("--resume"));
  core::CampaignSpec spec =
      resuming                 ? state.spec
      : !args.positional.empty() ? core::CampaignSpec::load(args.positional[0])
      : args.has("--preset")   ? core::CampaignSpec::preset(args.get("--preset"))
                               : core::CampaignSpec{};
  apply_common_overrides(spec, args);
  // After the overrides so `--vcd-out DIR` wins over a stray vcd_out= key
  // and the validated directory is the one that gets used. A vcd_out set
  // only via spec file / override is checked by Session::run() instead
  // (same exit code: SpecError -> 64).
  if (args.has("--vcd-out")) {
    const std::string dir = args.get("--vcd-out");
    if (!vcd_dir_writable(dir)) {
      std::fprintf(stderr,
                   "specure: --vcd-out directory '%s' is not writable\n",
                   dir.c_str());
      return kExitUsage;
    }
    spec.set("vcd_out", dir);
  }
  if (args.has("--state-out")) spec.set("state_out", args.get("--state-out"));
  if (args.has("--state-interval")) {
    spec.set("state_interval", args.get("--state-interval"));
  }
  if (args.has("--trace-out")) spec.set("trace_out", args.get("--trace-out"));
  spec.validate();
  if (resuming) {
    // Guards the bit-identity contract: only result-neutral keys (jobs,
    // output paths, intervals) may differ from the stored spec.
    spec = serve::resume_spec(state, spec);
  }

  if (args.has("--save")) {
    spec.save(args.get("--save"));
    std::printf("spec written to %s\n", args.get("--save").c_str());
  }
  if (args.has("--dry-run")) {
    std::fputs(spec.to_toml().c_str(), stdout);
    return kExitOk;
  }

  core::Session session(spec);
  attach_console_observers(session, args.has("--quiet"));
  if (!spec.state_out.empty()) {
    session.on_frontier(
        [&spec](const core::CampaignFrontier& f) {
          serve::save_state_file(spec.state_out, spec, f);
        },
        core::state_write_interval(spec.state_interval));
  }
  if (resuming) session.resume_from(std::move(state.frontier));

  // SIGINT/SIGTERM stop the campaign at its next merge boundary; the run
  // still reports, triages and (with state_out) stays resumable.
  g_signal_session.store(&session, std::memory_order_relaxed);
  install_stop_handler();
  const core::CampaignResult result = session.run();
  g_signal_session.store(nullptr, std::memory_order_relaxed);

  if (session.paused()) {
    std::fprintf(stderr,
                 "[specure] interrupted after %zu iterations — partial "
                 "report follows%s\n",
                 result.history.size(),
                 spec.state_out.empty()
                     ? " (no state_out configured: not resumable)"
                     : ("; resume with `specure run --resume " +
                        spec.state_out + "`")
                           .c_str());
    // Partial side outputs (VCD waveforms, triage) without consuming the
    // pause frontier — the state file keeps pointing at a resumable spot.
    session.finalize_interrupted();
  }
  return report_and_exit_code(result, spec, session, args);
}

const std::vector<FlagDef> kSweepFlags = {
    {"--preset", true, "add a scenario by preset name (repeatable)", true},
    {"--spec", true, "add a scenario from a TOML spec file (repeatable)", true},
    {"--iters", true, "iteration budget applied to every scenario"},
    {"--seed", true, "RNG seed applied to every scenario"},
    {"--jobs", true, "simulation workers per scenario"},
    {"--batch", true, "batch size applied to every scenario"},
    {"--concurrency", true, "scenarios run at once (0 = hardware threads)"},
    {"--json", true, "write the comparison as JSON to FILE"},
    {"--quiet", false, "suppress the per-scenario completion feed"},
};

int cmd_sweep(const Args& args) {
  core::Sweep sweep;
  // Scenario order = command-line order across both flags.
  for (const auto& [flag, value] : args.options) {
    if (flag == "--preset") {
      core::CampaignSpec spec = core::CampaignSpec::preset(value);
      apply_common_overrides(spec, args);
      spec.validate();
      sweep.add(std::move(spec));
    } else if (flag == "--spec") {
      core::CampaignSpec spec = core::CampaignSpec::load(value);
      apply_common_overrides(spec, args);
      spec.validate();
      sweep.add(std::move(spec));
    }
  }
  if (sweep.size() == 0) {
    std::fprintf(stderr,
                 "specure: sweep needs at least one --preset or --spec\n");
    return kExitUsage;
  }
  if (!args.has("--quiet")) {
    const std::size_t total = sweep.size();
    sweep.on_scenario_done([total](std::size_t index,
                                   const core::SweepOutcome& row) {
      if (row.ok()) {
        std::fprintf(stderr, "[sweep] scenario %zu (%s) done: %zu iters, "
                             "%zu vulns\n",
                     index + 1, row.spec.name.c_str(),
                     row.result.history.size(), row.result.vulns.size());
      } else {
        std::fprintf(stderr, "[sweep] scenario %zu (%s) FAILED: %s\n",
                     index + 1, row.spec.name.c_str(), row.error.c_str());
      }
      (void)total;
    });
  }
  std::uint64_t concurrency = 0;
  if (!parse_number(args.get("--concurrency", "0"), "--concurrency",
                    concurrency)) {
    return kExitUsage;
  }
  const auto rows = sweep.run(static_cast<std::size_t>(concurrency));

  std::printf("Specure sweep: %zu scenarios\n\n", rows.size());
  core::Sweep::write_table(std::cout, rows);
  if (args.has("--json")) {
    std::ofstream json(args.get("--json"));
    if (!json) {
      std::fprintf(stderr, "specure: cannot open %s\n",
                   args.get("--json").c_str());
      return kExitError;
    }
    core::Sweep::write_json(json, rows);
    std::printf("\nJSON comparison written to %s\n",
                args.get("--json").c_str());
  }
  for (const auto& row : rows) {
    if (!row.ok()) return kExitError;
  }
  return kExitOk;
}

const std::vector<FlagDef> kTriageFlags = {
    {"--out", true, "write one repro bundle per unique signature into DIR"},
    {"--jobs", true, "probe workers for minimization, 0 = all hardware"},
    {"--json", true, "write the triage summary as JSON to FILE"},
    {"--quiet", false, "suppress the per-finding feed"},
};

int cmd_triage(const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: specure triage REPORT.json|SPEC.toml [--out DIR] "
                 "[--jobs N] [--json F] [key=value ...]\n");
    return kExitUsage;
  }
  const std::string& input = args.positional[0];
  std::uint64_t jobs = 0;
  if (!parse_number(args.get("--jobs", "0"), "--jobs", jobs)) {
    return kExitUsage;
  }

  triage::TriageReport triaged;
  if (input.size() > 5 && input.substr(input.size() - 5) == ".json") {
    // Triage an existing report: no campaign, straight to minimization.
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "specure: cannot open %s\n", input.c_str());
      return kExitError;
    }
    core::ParsedReport report = core::parse_json_report(in);
    if (!report.has_spec) {
      std::fprintf(stderr,
                   "specure: %s carries no spec object — regenerate with "
                   "`specure run --json`\n",
                   input.c_str());
      return kExitUsage;
    }
    for (const std::string& assignment : args.overrides) {
      report.spec.apply_override(assignment);
    }
    report.spec.validate();
    if (report.findings.empty()) {
      std::printf("no findings in %s — nothing to triage\n", input.c_str());
      return kExitOk;
    }
    std::vector<triage::TriageInput> inputs;
    for (auto& f : report.findings) {
      inputs.push_back({std::move(f.signature), std::move(f.program)});
    }
    triage::TriageOptions options;
    options.mode = args.has("--out") ? core::TriageMode::kFull
                                     : core::TriageMode::kOn;
    options.out_dir = args.get("--out");
    options.jobs = jobs;
    const bool quiet = args.has("--quiet");
    const core::OfflineResult offline =
        core::run_offline_phase(report.spec.core, report.spec.pdlc);
    triaged = triage::run_triage(
        report.spec, offline, inputs, options,
        [quiet](const triage::MinimizedEvent& e) {
          if (quiet) return;
          std::fprintf(stderr, "[triage] %s: %zu -> %zu instructions\n",
                       e.digest.c_str(), e.original_len, e.minimized_len);
        });
  } else {
    // Spec input: run the campaign, then triage its findings in-session.
    core::CampaignSpec spec = core::CampaignSpec::load(input);
    apply_common_overrides(spec, args);
    spec.triage = args.has("--out") ? core::TriageMode::kFull
                                    : core::TriageMode::kOn;
    if (args.has("--out")) spec.triage_out = args.get("--out");
    spec.validate();
    core::Session session(spec);
    attach_console_observers(session, args.has("--quiet"));
    const core::CampaignResult result = session.run();
    if (result.vulns.empty()) {
      std::printf("campaign found nothing to triage (%zu iterations)\n",
                  result.history.size());
      return kExitOk;
    }
    if (session.triage_report() != nullptr) {
      triaged = *session.triage_report();
    }
  }

  std::printf("Specure triage: %zu unique signatures, %zu probes\n\n",
              triaged.findings.size(), triaged.probes_total);
  triage::write_triage_table(std::cout, triaged);
  if (args.has("--json")) {
    std::ofstream json(args.get("--json"));
    if (!json) {
      std::fprintf(stderr, "specure: cannot open %s\n",
                   args.get("--json").c_str());
      return kExitError;
    }
    triage::write_triage_json(json, triaged);
    std::printf("\nJSON triage summary written to %s\n",
                args.get("--json").c_str());
  }
  for (const triage::TriagedFinding& f : triaged.findings) {
    if (!f.reproduced) return kExitError;
    if (!f.bundle_dir.empty() && !f.verified) return kExitError;
  }
  return kExitOk;
}

const std::vector<FlagDef> kPresetsFlags = {
    {"--keys", false, "also list every key=value override key"},
};

int cmd_presets(const Args& args) {
  std::printf("Scenario presets (specure run --preset NAME):\n");
  for (const core::PresetInfo& info : core::CampaignSpec::presets()) {
    std::printf("  %-14s %s\n", info.name.c_str(), info.description.c_str());
  }
  if (args.has("--keys")) {
    std::printf("\nOverride keys (key=value, e.g. rob_entries=32):\n");
    core::CampaignSpec defaults;
    for (const core::SpecField& f : defaults.fields()) {
      std::printf("  %-28s default: %s\n", f.key.c_str(), f.value.c_str());
    }
  } else {
    std::printf("\n(`specure presets --keys` lists the override keys)\n");
  }
  return kExitOk;
}

const std::vector<FlagDef> kOfflineFlags = {
    {"--mwait", false, "arm the (M)WAIT emulation"},
    {"--zenbleed", false, "arm the Zenbleed emulation"},
    {"--dot", true, "dump the IFG as Graphviz to FILE"},
    {"--verilog", true, "dump the structural Verilog to FILE"},
};

int cmd_offline(const Args& args) {
  sim::CoreConfig cfg;
  cfg.vuln.mwait_emulation = args.has("--mwait");
  cfg.vuln.zenbleed_emulation = args.has("--zenbleed");
  const core::OfflineResult off = core::run_offline_phase(cfg);
  std::printf("IFG: %zu signals, %zu flow edges (%.4fs)\n",
              off.ifg.node_count(), off.ifg.edge_count(), off.ifg_seconds);
  std::printf("PDLC: %zu channels (%.4fs)\n", off.pdlc.size(),
              off.pdlc_seconds);
  if (args.has("--dot")) {
    std::ofstream dot(args.get("--dot"));
    if (!dot) {
      std::fprintf(stderr, "specure: cannot open %s\n",
                   args.get("--dot").c_str());
      return kExitError;
    }
    off.ifg.write_dot(dot);
    std::printf("IFG written to %s\n", args.get("--dot").c_str());
  }
  if (args.has("--verilog")) {
    std::ofstream v(args.get("--verilog"));
    if (!v) {
      std::fprintf(stderr, "specure: cannot open %s\n",
                   args.get("--verilog").c_str());
      return kExitError;
    }
    v << sim::emit_structural_verilog(cfg);
    std::printf("structural Verilog written to %s\n",
                args.get("--verilog").c_str());
  }
  return kExitOk;
}

const std::vector<FlagDef> kAuditFlags = {
    {"--top", true, "top module name"},
    {"--dot", true, "dump the IFG as Graphviz to FILE"},
};

int cmd_audit(const Args& args) {
  if (args.positional.empty() || !args.has("--top")) {
    std::fprintf(stderr, "usage: specure audit FILE.v --top MODULE\n");
    return kExitUsage;
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::fprintf(stderr, "specure: cannot open %s\n",
                 args.positional[0].c_str());
    return kExitError;
  }
  std::string source((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const core::OfflineResult off = core::run_offline_phase_rtl(
      source, args.get("--top"), ift::ArchRegDb::riscv());
  std::printf("IFG: %zu signals, %zu flow edges\n", off.ifg.node_count(),
              off.ifg.edge_count());
  std::printf("PDLC channels (%zu):\n", off.pdlc.size());
  for (const auto& ch : off.pdlc.channels()) {
    std::printf("  %s", off.ifg.node(ch.source).name.c_str());
    for (std::size_t i = 1; i < ch.path.size(); ++i) {
      std::printf(" -> %s", off.ifg.node(ch.path[i]).name.c_str());
    }
    std::printf("\n");
  }
  if (args.has("--dot")) {
    std::ofstream dot(args.get("--dot"));
    off.ifg.write_dot(dot);
  }
  return kExitOk;
}

int cmd_disasm(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: specure disasm HEXWORD [PC]\n");
    return kExitUsage;
  }
  std::uint64_t word = 0;
  std::uint64_t pc = riscv::kCodeBase;
  if (!parse_number(args.positional[0], "HEXWORD", word, 16, 32) ||
      (args.positional.size() > 1 &&
       !parse_number(args.positional[1], "PC", pc, 16))) {
    return kExitUsage;
  }
  std::printf("%08x: %s\n", static_cast<std::uint32_t>(word),
              riscv::disassemble(static_cast<std::uint32_t>(word), pc).c_str());
  return kExitOk;
}

// -------------------------------------------------- campaign-as-a-service --

constexpr const char* kDefaultSocket = "specure.sock";
constexpr const char* kDefaultStore = "specure-store";

const std::vector<FlagDef> kServeFlags = {
    {"--socket", true, "Unix-domain socket to listen on (default specure.sock)"},
    {"--store", true, "campaign store directory (default specure-store)"},
    {"--workers", true, "runner threads, 0 = all hardware"},
    {"--slice", true, "fair-scheduling quantum in iterations (default 32)"},
};

int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  options.socket_path = args.get("--socket", kDefaultSocket);
  options.store_root = args.get("--store", kDefaultStore);
  std::uint64_t workers = 0;
  if (!parse_number(args.get("--workers", "0"), "--workers", workers) ||
      !parse_number(args.get("--slice", "32"), "--slice",
                    options.slice_iterations)) {
    return kExitUsage;
  }
  options.workers = static_cast<std::size_t>(workers);

  // Block the stop signals before the server spawns any thread (the mask
  // is inherited), then watch for them next to the serving thread:
  // Server::shutdown() takes locks, so it must not run inside a handler.
  sigset_t stop_set;
  ::sigemptyset(&stop_set);
  ::sigaddset(&stop_set, SIGINT);
  ::sigaddset(&stop_set, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);

  serve::Server server(std::move(options));
  std::fprintf(stderr, "[specure] serving on %s (store %s, %zu workers)\n",
               server.options().socket_path.c_str(),
               server.options().store_root.c_str(),
               server.options().workers != 0
                   ? server.options().workers
                   : static_cast<std::size_t>(
                         std::thread::hardware_concurrency()));
  std::atomic<bool> done{false};
  std::thread serving([&server, &done] {
    server.run();
    done.store(true, std::memory_order_relaxed);
  });
  bool asked = false;
  // shutdown() returns once every tenant's state is written; it runs on
  // its own thread so a second signal can still force-quit meanwhile.
  std::thread stopping;
  const timespec tick{0, 200 * 1000 * 1000};
  while (!done.load(std::memory_order_relaxed)) {
    const int sig = ::sigtimedwait(&stop_set, nullptr, &tick);
    if (sig <= 0) continue;
    if (asked) _exit(130);
    asked = true;
    std::fprintf(stderr,
                 "[specure] caught signal: campaigns pause at their next "
                 "merge boundary and persist (again to force-quit)\n");
    stopping = std::thread([&server] { server.shutdown(); });
  }
  serving.join();
  if (stopping.joinable()) stopping.join();
  std::fprintf(stderr, "[specure] daemon stopped; campaigns resume on the "
                       "next `specure serve --store %s`\n",
               server.options().store_root.c_str());
  return kExitOk;
}

const std::vector<FlagDef> kClientFlags = {
    {"--socket", true, "daemon socket path (default specure.sock)"},
};

const std::vector<FlagDef> kSubmitFlags = {
    {"--socket", true, "daemon socket path (default specure.sock)"},
    {"--preset", true, "submit a named scenario preset instead of a file"},
    {"--iters", true, "iteration budget (sugar for iterations=N)"},
    {"--seed", true, "campaign RNG seed (sugar for seed=S)"},
    {"--batch", true, "batch size (sugar for batch=B)"},
};

const std::vector<FlagDef> kEventsFlags = {
    {"--socket", true, "daemon socket path (default specure.sock)"},
    {"--from", true, "first event index to stream (default 0)"},
    {"--no-follow", false, "dump the log so far and exit instead of tailing"},
};

/// Render a daemon response: errors to stderr (exit 1), otherwise one
/// human-readable line from the well-known fields.
int print_reply(const util::Json& reply) {
  if (const util::Json* error = reply.find("error")) {
    std::fprintf(stderr, "specure: %s\n", error->text.c_str());
    return kExitError;
  }
  std::string line;
  if (const util::Json* id = reply.find("id")) line += id->text;
  if (const util::Json* status = reply.find("status")) {
    line += (line.empty() ? "" : ": ") + status->text;
  }
  if (const util::Json* iters = reply.find("iterations")) {
    line += "  iterations=" +
            std::to_string(static_cast<std::uint64_t>(iters->number));
    // Merged-progress against the budget, when the daemon reports one.
    if (const util::Json* budget = reply.find("budget")) {
      if (budget->number > 0) {
        line +=
            "/" + std::to_string(static_cast<std::uint64_t>(budget->number));
      }
    }
  }
  if (const util::Json* vulns = reply.find("vulns")) {
    line += "  vulns=" +
            std::to_string(static_cast<std::uint64_t>(vulns->number));
  }
  if (const util::Json* rate = reply.find("iters_per_sec")) {
    if (rate->number > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", rate->number);
      line += std::string("  rate=") + buf + " it/s";
    }
  }
  if (const util::Json* detail = reply.find("detail")) {
    line += "  (" + detail->text + ")";
  }
  std::printf("%s\n", line.empty() ? "ok" : line.c_str());
  return kExitOk;
}

/// Shared body of pause/resume/cancel (and status with an id): one
/// id-addressed verb, one response frame.
int send_id_verb(const char* verb, const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr, "usage: specure %s CAMPAIGN_ID [--socket PATH]\n",
                 verb);
    return kExitUsage;
  }
  serve::Client client(args.get("--socket", kDefaultSocket));
  return print_reply(client.request(
      std::string("{\"verb\": \"") + verb + "\", \"id\": \"" +
      util::escape_json(args.positional[0]) + "\"}"));
}

int cmd_submit(const Args& args) {
  if (args.positional.size() > 1 ||
      (!args.positional.empty() && args.has("--preset"))) {
    std::fprintf(stderr,
                 "usage: specure submit [SPEC.toml | --preset NAME] "
                 "[key=value ...] [--socket PATH]\n");
    return kExitUsage;
  }
  core::CampaignSpec spec =
      !args.positional.empty() ? core::CampaignSpec::load(args.positional[0])
      : args.has("--preset")   ? core::CampaignSpec::preset(args.get("--preset"))
                               : core::CampaignSpec{};
  apply_common_overrides(spec, args);
  spec.validate();  // reject locally before bothering the daemon

  serve::Client client(args.get("--socket", kDefaultSocket));
  const util::Json reply = client.request(
      "{\"verb\": \"submit\", \"spec\": \"" +
      util::escape_json(spec.to_toml()) + "\"}");
  if (const util::Json* error = reply.find("error")) {
    std::fprintf(stderr, "specure: %s\n", error->text.c_str());
    return kExitError;
  }
  const util::Json* id = reply.find("id");
  std::printf("%s\n", id != nullptr ? id->text.c_str() : "ok");
  return kExitOk;
}

int cmd_status(const Args& args) {
  if (args.positional.size() == 1) return send_id_verb("status", args);
  if (!args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: specure status [CAMPAIGN_ID] [--socket PATH]\n");
    return kExitUsage;
  }
  // No id: list every campaign the daemon knows.
  serve::Client client(args.get("--socket", kDefaultSocket));
  const util::Json reply = client.request("{\"verb\": \"list\"}");
  if (const util::Json* error = reply.find("error")) {
    std::fprintf(stderr, "specure: %s\n", error->text.c_str());
    return kExitError;
  }
  const util::Json* campaigns = reply.find("campaigns");
  if (campaigns == nullptr || campaigns->items.empty()) {
    std::printf("no campaigns\n");
    return kExitOk;
  }
  for (const util::Json& row : campaigns->items) {
    print_reply(row);
  }
  return kExitOk;
}

int cmd_events(const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: specure events CAMPAIGN_ID [--from N] "
                 "[--no-follow] [--socket PATH]\n");
    return kExitUsage;
  }
  std::uint64_t from = 0;
  if (!parse_number(args.get("--from", "0"), "--from", from)) {
    return kExitUsage;
  }
  serve::Client client(args.get("--socket", kDefaultSocket));
  client.send("{\"verb\": \"events\", \"id\": \"" +
              util::escape_json(args.positional[0]) +
              "\", \"from\": " + std::to_string(from) +
              ", \"follow\": " +
              (args.has("--no-follow") ? "false" : "true") + "}");
  std::string raw;
  while (client.next_raw(raw)) {
    std::printf("%s\n", raw.c_str());
    std::fflush(stdout);
    const util::Json frame = util::parse_json(raw);
    if (const util::Json* error = frame.find("error")) {
      std::fprintf(stderr, "specure: %s\n", error->text.c_str());
      return kExitError;
    }
    const util::Json* event = frame.find("event");
    if (event != nullptr && event->text == "end") return kExitOk;
  }
  std::fprintf(stderr, "specure: daemon closed the event stream\n");
  return kExitError;
}

int cmd_metrics(const Args& args) {
  if (args.positional.size() > 1) {
    std::fprintf(stderr,
                 "usage: specure metrics [CAMPAIGN_ID] [--socket PATH]\n");
    return kExitUsage;
  }
  serve::Client client(args.get("--socket", kDefaultSocket));
  std::string request = "{\"verb\": \"metrics\"";
  if (!args.positional.empty()) {
    request += ", \"id\": \"" + util::escape_json(args.positional[0]) + "\"";
  }
  request += "}";
  const util::Json reply = client.request(request);
  if (const util::Json* error = reply.find("error")) {
    std::fprintf(stderr, "specure: %s\n", error->text.c_str());
    return kExitError;
  }
  const util::Json* metrics = reply.find("metrics");
  if (metrics == nullptr) {
    std::fprintf(stderr, "specure: daemon reply carried no metrics field\n");
    return kExitError;
  }
  std::fputs(metrics->text.c_str(), stdout);
  return kExitOk;
}

int cmd_pause(const Args& args) { return send_id_verb("pause", args); }
int cmd_resume(const Args& args) { return send_id_verb("resume", args); }
int cmd_cancel(const Args& args) { return send_id_verb("cancel", args); }

int cmd_shutdown(const Args& args) {
  if (!args.positional.empty()) {
    std::fprintf(stderr, "usage: specure shutdown [--socket PATH]\n");
    return kExitUsage;
  }
  serve::Client client(args.get("--socket", kDefaultSocket));
  return print_reply(client.request("{\"verb\": \"shutdown\"}"));
}

// ------------------------------------------------------------------- main --

struct CommandDef {
  const char* name;
  const std::vector<FlagDef>* flags;
  bool allow_overrides;
  int (*handler)(const Args&);
};

const std::vector<CommandDef>& commands() {
  static const std::vector<CommandDef> kCommands = {
      {"run", &kRunFlags, true, cmd_run},
      {"sweep", &kSweepFlags, true, cmd_sweep},
      {"triage", &kTriageFlags, true, cmd_triage},
      {"presets", &kPresetsFlags, false, cmd_presets},
      {"offline", &kOfflineFlags, false, cmd_offline},
      {"audit", &kAuditFlags, false, cmd_audit},
      {"disasm", nullptr, false, cmd_disasm},
      {"serve", &kServeFlags, false, cmd_serve},
      {"submit", &kSubmitFlags, true, cmd_submit},
      {"status", &kClientFlags, false, cmd_status},
      {"metrics", &kClientFlags, false, cmd_metrics},
      {"events", &kEventsFlags, false, cmd_events},
      {"pause", &kClientFlags, false, cmd_pause},
      {"resume", &kClientFlags, false, cmd_resume},
      {"cancel", &kClientFlags, false, cmd_cancel},
      {"shutdown", &kClientFlags, false, cmd_shutdown},
  };
  return kCommands;
}

void usage() {
  std::fprintf(
      stderr,
      "specure <run|sweep|triage|presets|offline|audit|disasm|serve|"
      "submit|status|metrics|events|pause|resume|cancel|shutdown> [options]\n"
      "  run [SPEC.toml] [--preset NAME] [key=value ...] [--iters N]\n"
      "      [--seed S] [--json F] [--save F] [--vcd-out DIR] [--dry-run]\n"
      "      [--state-out F] [--state-interval S] [--resume STATE]\n"
      "      [--trace-out F] [--quiet]\n"
      "  sweep (--preset NAME | --spec FILE)... [key=value ...]\n"
      "      [--iters N] [--seed S] [--concurrency N] [--json F] [--quiet]\n"
      "  triage REPORT.json|SPEC.toml [--out DIR] [--jobs N] [--json F]\n"
      "      [key=value ...] [--quiet]\n"
      "  presets [--keys]\n"
      "  offline [--mwait] [--zenbleed] [--dot F] [--verilog F]\n"
      "  audit FILE.v --top MODULE [--dot F]\n"
      "  disasm HEXWORD [PC]\n"
      "  serve [--socket PATH] [--store DIR] [--workers N] [--slice N]\n"
      "      (campaign daemon; resumes its store)\n"
      "  submit [SPEC.toml | --preset NAME] [key=value ...] [--socket PATH]\n"
      "  status [CAMPAIGN_ID] [--socket PATH]\n"
      "  metrics [CAMPAIGN_ID] [--socket PATH]   (Prometheus text)\n"
      "  events CAMPAIGN_ID [--from N] [--no-follow] [--socket PATH]\n"
      "  pause|resume|cancel CAMPAIGN_ID [--socket PATH]\n"
      "  shutdown [--socket PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  const CommandDef* def = nullptr;
  for (const CommandDef& c : commands()) {
    if (cmd == c.name) def = &c;
  }
  if (def == nullptr) {
    std::string msg = "unknown command '" + cmd + "'";
    std::vector<std::string> names;
    for (const CommandDef& c : commands()) names.emplace_back(c.name);
    const std::string hint = util::closest_match(cmd, names);
    if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
    std::fprintf(stderr, "specure: %s\n", msg.c_str());
    usage();
    return kExitUsage;
  }

  Args args;
  static const std::vector<FlagDef> kNoFlags;
  if (!parse_args(argc, argv, 2, def->flags ? *def->flags : kNoFlags,
                  def->allow_overrides, args)) {
    return kExitUsage;
  }
  try {
    return def->handler(args);
  } catch (const core::SpecError& e) {
    std::fprintf(stderr, "specure: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specure: %s\n", e.what());
    return kExitError;
  }
}
