#include "core/campaign_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace specure::core {

namespace {

// ---------------------------------------------------------- value parsing --

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  if (value.empty()) throw SpecError(key + ": empty value, expected integer");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() || value[0] == '-') {
    throw SpecError(key + ": '" + value + "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint64_t parse_u64_max(const std::string& key, const std::string& value,
                            std::uint64_t max) {
  const std::uint64_t v = parse_u64(key, value);
  if (v > max) {
    throw SpecError(key + ": " + value + " exceeds the maximum of " +
                    std::to_string(max));
  }
  return v;
}

unsigned parse_unsigned(const std::string& key, const std::string& value) {
  return static_cast<unsigned>(
      parse_u64_max(key, value, std::numeric_limits<unsigned>::max()));
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  throw SpecError(key + ": '" + value + "' is not a bool (use true/false)");
}

double parse_double(const std::string& key, const std::string& value) {
  if (value.empty()) throw SpecError(key + ": empty value, expected number");
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || v < 0) {
    throw SpecError(key + ": '" + value + "' is not a non-negative number");
  }
  return v;
}

std::string render_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// -------------------------------------------------------------- key table --

struct KeyDef {
  const char* key;
  const char* section;
  bool quoted;  ///< string-typed in TOML / JSON
  std::string (*get)(const CampaignSpec&);
  void (*set)(CampaignSpec&, const std::string&);
};

#define SPEC_U64(KEY, SECTION, FIELD)                                       \
  KeyDef{KEY, SECTION, false,                                               \
         [](const CampaignSpec& s) { return std::to_string(s.FIELD); },     \
         [](CampaignSpec& s, const std::string& v) {                        \
           s.FIELD = parse_u64(KEY, v);                                     \
         }}

#define SPEC_UNSIGNED(KEY, SECTION, FIELD)                                  \
  KeyDef{KEY, SECTION, false,                                               \
         [](const CampaignSpec& s) { return std::to_string(s.FIELD); },     \
         [](CampaignSpec& s, const std::string& v) {                        \
           s.FIELD = parse_unsigned(KEY, v);                                \
         }}

#define SPEC_SIZE(KEY, SECTION, FIELD)                                      \
  KeyDef{KEY, SECTION, false,                                               \
         [](const CampaignSpec& s) { return std::to_string(s.FIELD); },     \
         [](CampaignSpec& s, const std::string& v) {                        \
           s.FIELD = static_cast<std::size_t>(parse_u64(KEY, v));           \
         }}

#define SPEC_BOOL(KEY, SECTION, FIELD)                                      \
  KeyDef{KEY, SECTION, false,                                               \
         [](const CampaignSpec& s) {                                        \
           return std::string(s.FIELD ? "true" : "false");                  \
         },                                                                 \
         [](CampaignSpec& s, const std::string& v) {                        \
           s.FIELD = parse_bool(KEY, v);                                    \
         }}

const std::vector<KeyDef>& key_table() {
  static const std::vector<KeyDef> kKeys = {
      KeyDef{"name", "", true,
             [](const CampaignSpec& s) { return s.name; },
             [](CampaignSpec& s, const std::string& v) {
               if (v.empty()) throw SpecError("name: must not be empty");
               s.name = v;
             }},
      // -- core ------------------------------------------------------------
      SPEC_UNSIGNED("rob_entries", "core", core.rob_entries),
      SPEC_UNSIGNED("phys_regs", "core", core.phys_regs),
      SPEC_UNSIGNED("retire_width", "core", core.retire_width),
      SPEC_UNSIGNED("branch_resolve_latency", "core",
                    core.branch_resolve_latency),
      SPEC_UNSIGNED("jalr_resolve_latency", "core", core.jalr_resolve_latency),
      SPEC_UNSIGNED("load_hit_latency", "core", core.load_hit_latency),
      SPEC_UNSIGNED("load_miss_latency", "core", core.load_miss_latency),
      SPEC_UNSIGNED("mul_latency", "core", core.mul_latency),
      SPEC_UNSIGNED("div_latency", "core", core.div_latency),
      SPEC_UNSIGNED("ghist_bits", "core", core.ghist_bits),
      SPEC_UNSIGNED("pht_entries", "core", core.pht_entries),
      SPEC_UNSIGNED("btb_entries", "core", core.btb_entries),
      SPEC_UNSIGNED("ras_entries", "core", core.ras_entries),
      SPEC_UNSIGNED("dcache_sets", "core", core.dcache_sets),
      SPEC_UNSIGNED("dcache_ways", "core", core.dcache_ways),
      SPEC_UNSIGNED("dcache_line_bytes", "core", core.dcache_line_bytes),
      SPEC_UNSIGNED("tlb_entries", "core", core.tlb_entries),
      SPEC_UNSIGNED("page_bits", "core", core.page_bits),
      SPEC_U64("max_cycles", "core", core.max_cycles),
      SPEC_U64("mwait_timer_start", "core", core.mwait_timer_start),
      SPEC_BOOL("mwait", "core", core.vuln.mwait_emulation),
      SPEC_BOOL("zenbleed", "core", core.vuln.zenbleed_emulation),
      // Debug/differential switch: record the dense reference trace next
      // to the delta trace. Campaign results must be identical with it on
      // or off — CI's capture-differential smoke diffs the two reports.
      // Deliberately NOT result-neutral for serve's dedup key: a dense run
      // is a different execution plan.
      SPEC_BOOL("dense_trace", "core", core.record_dense_trace),
      // -- fuzzer ----------------------------------------------------------
      SPEC_BOOL("special_seeds", "fuzzer", fuzzer.use_special_seeds),
      SPEC_SIZE("random_seed_count", "fuzzer", fuzzer.random_seed_count),
      SPEC_SIZE("random_seed_len", "fuzzer", fuzzer.random_seed_len),
      SPEC_SIZE("corpus_max", "fuzzer", fuzzer.corpus_max),
      SPEC_UNSIGNED("splice_percent", "fuzzer", fuzzer.splice_percent),
      SPEC_UNSIGNED("mutation_min_stack", "fuzzer", fuzzer.mutator.min_stack),
      SPEC_UNSIGNED("mutation_max_stack", "fuzzer", fuzzer.mutator.max_stack),
      SPEC_SIZE("max_code_len", "fuzzer", fuzzer.mutator.max_code_len),
      SPEC_SIZE("max_data_len", "fuzzer", fuzzer.mutator.max_data_len),
      KeyDef{"replay_program", "fuzzer", true,
             [](const CampaignSpec& s) { return s.fuzzer.replay_program_hex; },
             [](CampaignSpec& s, const std::string& v) {
               s.fuzzer.replay_program_hex = v;
             }},
      // -- campaign --------------------------------------------------------
      KeyDef{"feedback", "campaign", true,
             [](const CampaignSpec& s) {
               return std::string(feedback_mode_name(s.feedback));
             },
             [](CampaignSpec& s, const std::string& v) {
               if (v == "lp") {
                 s.feedback = FeedbackMode::kLeakagePath;
               } else if (v == "codecov") {
                 s.feedback = FeedbackMode::kCodeCoverage;
               } else {
                 throw SpecError("feedback: '" + v +
                                 "' is not a feedback mode (lp | codecov)");
               }
             }},
      KeyDef{"lp_policy", "campaign", true,
             [](const CampaignSpec& s) {
               return std::string(lp_policy_name(s.lp_policy));
             },
             [](CampaignSpec& s, const std::string& v) {
               if (v == "all-signals") {
                 s.lp_policy = LpPolicy::kAllSignals;
               } else if (v == "endpoints") {
                 s.lp_policy = LpPolicy::kEndpoints;
               } else {
                 throw SpecError(
                     "lp_policy: '" + v +
                     "' is not a policy (all-signals | endpoints)");
               }
             }},
      SPEC_BOOL("monitor_cache", "campaign", detector.monitor_cache),
      SPEC_U64("commit_drain_horizon", "campaign",
               detector.commit_drain_horizon),
      SPEC_U64("seed", "campaign", rng_seed),
      SPEC_SIZE("jobs", "campaign", jobs),
      KeyDef{"batch", "campaign", false,
             [](const CampaignSpec& s) { return std::to_string(s.batch_size); },
             [](CampaignSpec& s, const std::string& v) {
               s.batch_size = static_cast<std::size_t>(parse_u64("batch", v));
             }},
      KeyDef{"pipeline", "campaign", true,
             [](const CampaignSpec& s) {
               return std::string(pipeline_mode_name(s.pipeline));
             },
             [](CampaignSpec& s, const std::string& v) {
               if (v == "window") {
                 s.pipeline = PipelineMode::kWindow;
               } else if (v == "barrier") {
                 s.pipeline = PipelineMode::kBarrier;
               } else {
                 throw SpecError("pipeline: '" + v +
                                 "' is not an executor (window | barrier)");
               }
             }},
      SPEC_SIZE("mst_rows", "campaign", mst_sample_rows),
      SPEC_U64("progress_interval", "campaign", progress_interval),
      KeyDef{"vcd_out", "campaign", true,
             [](const CampaignSpec& s) { return s.vcd_out; },
             [](CampaignSpec& s, const std::string& v) { s.vcd_out = v; }},
      KeyDef{"triage", "campaign", true,
             [](const CampaignSpec& s) {
               return std::string(triage_mode_name(s.triage));
             },
             [](CampaignSpec& s, const std::string& v) {
               if (v == "off") {
                 s.triage = TriageMode::kOff;
               } else if (v == "on") {
                 s.triage = TriageMode::kOn;
               } else if (v == "full") {
                 s.triage = TriageMode::kFull;
               } else {
                 throw SpecError("triage: '" + v +
                                 "' is not a triage mode (off | on | full)");
               }
             }},
      KeyDef{"triage_out", "campaign", true,
             [](const CampaignSpec& s) { return s.triage_out; },
             [](CampaignSpec& s, const std::string& v) { s.triage_out = v; }},
      KeyDef{"state_out", "campaign", true,
             [](const CampaignSpec& s) { return s.state_out; },
             [](CampaignSpec& s, const std::string& v) { s.state_out = v; }},
      KeyDef{"state_interval", "campaign", false,
             [](const CampaignSpec& s) {
               return render_double(s.state_interval);
             },
             [](CampaignSpec& s, const std::string& v) {
               s.state_interval = parse_double("state_interval", v);
             }},
      SPEC_BOOL("metrics", "campaign", metrics),
      KeyDef{"trace_out", "campaign", true,
             [](const CampaignSpec& s) { return s.trace_out; },
             [](CampaignSpec& s, const std::string& v) { s.trace_out = v; }},
      // -- offline ---------------------------------------------------------
      SPEC_BOOL("pdlc_reverse", "offline", pdlc.reverse),
      SPEC_BOOL("pdlc_register_sources_only", "offline",
                pdlc.register_sources_only),
      SPEC_SIZE("pdlc_max_channels", "offline", pdlc.max_channels),
      // -- budget ----------------------------------------------------------
      SPEC_U64("iterations", "budget", budget.iterations),
      SPEC_U64("max_vulns", "budget", budget.max_vulns),
      KeyDef{"max_seconds", "budget", false,
             [](const CampaignSpec& s) { return render_double(s.budget.max_seconds); },
             [](CampaignSpec& s, const std::string& v) {
               s.budget.max_seconds = parse_double("max_seconds", v);
             }},
      SPEC_U64("plateau", "budget", budget.plateau),
  };
  return kKeys;
}

#undef SPEC_U64
#undef SPEC_UNSIGNED
#undef SPEC_SIZE
#undef SPEC_BOOL

const KeyDef* find_key(const std::string& key) {
  for (const KeyDef& def : key_table()) {
    if (key == def.key) return &def;
  }
  return nullptr;
}

[[noreturn]] void throw_unknown_key(const std::string& key) {
  std::string msg = "unknown spec key '" + key + "'";
  const std::string hint = util::closest_match(key, CampaignSpec::keys());
  if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
  msg += " (see `specure presets --keys` for the full list)";
  throw SpecError(msg);
}

// ----------------------------------------------------------------- presets --

struct PresetDef {
  PresetInfo info;
  void (*apply)(CampaignSpec&);
};

const std::vector<PresetDef>& preset_table() {
  static const std::vector<PresetDef> kPresets = {
      {{"default", "LP-coverage feedback on the baseline MiniBOOM core"},
       [](CampaignSpec&) {}},
      {{"lp",
        "explicit Leakage-Path-coverage feedback (Figure 2, Specure side)"},
       [](CampaignSpec&) {}},
      {{"codecov",
        "traditional code-coverage feedback (Figure 2 baseline, TheHuzz-style)"},
       [](CampaignSpec& s) { s.feedback = FeedbackMode::kCodeCoverage; }},
      // Core-level shapes come from the sim-layer registry, the single
      // source for CoreConfig presets.
      {{"mwait", "(M)WAIT vulnerability emulation armed (paper §4.2)"},
       [](CampaignSpec& s) { sim::lookup_core_preset("mwait", s.core); }},
      {{"zenbleed", "Zenbleed rollback-bug emulation armed (paper §4.2)"},
       [](CampaignSpec& s) { sim::lookup_core_preset("zenbleed", s.core); }},
      {{"no-spec",
        "no-speculation negative control — the finding surface must vanish"},
       [](CampaignSpec& s) { sim::lookup_core_preset("no-spec", s.core); }},
      {{"cache-monitor",
        "data cache added to the monitored sinks (the paper's Spectre hunt)"},
       [](CampaignSpec& s) { s.detector.monitor_cache = true; }},
      {{"full",
        "every emulation armed plus cache monitoring (widest finding surface)"},
       [](CampaignSpec& s) {
         sim::lookup_core_preset("full", s.core);
         s.detector.monitor_cache = true;
       }},
  };
  return kPresets;
}

}  // namespace

std::string_view feedback_mode_name(FeedbackMode mode) {
  return mode == FeedbackMode::kLeakagePath ? "lp" : "codecov";
}

std::string_view lp_policy_name(LpPolicy policy) {
  return policy == LpPolicy::kAllSignals ? "all-signals" : "endpoints";
}

std::string_view pipeline_mode_name(PipelineMode mode) {
  return mode == PipelineMode::kWindow ? "window" : "barrier";
}

std::string_view triage_mode_name(TriageMode mode) {
  switch (mode) {
    case TriageMode::kOff: return "off";
    case TriageMode::kOn: return "on";
    case TriageMode::kFull: return "full";
  }
  return "?";
}

const std::vector<PresetInfo>& CampaignSpec::presets() {
  static const std::vector<PresetInfo> kInfos = [] {
    std::vector<PresetInfo> infos;
    for (const PresetDef& def : preset_table()) infos.push_back(def.info);
    return infos;
  }();
  return kInfos;
}

CampaignSpec CampaignSpec::preset(std::string_view name) {
  for (const PresetDef& def : preset_table()) {
    if (name == def.info.name) {
      CampaignSpec spec;
      spec.name = def.info.name;
      def.apply(spec);
      return spec;
    }
  }
  std::vector<std::string> names;
  for (const PresetDef& def : preset_table()) names.push_back(def.info.name);
  std::string msg = "unknown preset '" + std::string(name) + "'";
  const std::string hint = util::closest_match(name, names);
  if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
  msg += " (available: " + util::join(names, ", ") + ")";
  throw SpecError(msg);
}

void CampaignSpec::set(const std::string& key, const std::string& value) {
  const KeyDef* def = find_key(key);
  if (def == nullptr) throw_unknown_key(key);
  def->set(*this, value);
}

void CampaignSpec::apply_override(const std::string& assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw SpecError("override '" + assignment +
                    "' is not of the form key=value");
  }
  set(std::string(util::trim(assignment.substr(0, eq))),
      std::string(util::trim(assignment.substr(eq + 1))));
}

std::vector<std::string> CampaignSpec::keys() {
  std::vector<std::string> out;
  for (const KeyDef& def : key_table()) out.emplace_back(def.key);
  return out;
}

std::vector<SpecField> CampaignSpec::fields() const {
  std::vector<SpecField> out;
  for (const KeyDef& def : key_table()) {
    out.push_back({def.key, def.section, def.get(*this), def.quoted});
  }
  return out;
}

std::string CampaignSpec::to_toml() const {
  std::ostringstream os;
  os << "# specure campaign spec (TOML subset; see `specure presets --keys`)\n";
  std::string section;
  for (const SpecField& f : fields()) {
    if (f.section != section) {
      section = f.section;
      os << "\n[" << section << "]\n";
    }
    os << f.key << " = ";
    if (f.quoted) {
      os << '"' << f.value << '"';
    } else {
      os << f.value;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Strip a trailing comment that is not inside a quoted string.
std::string_view strip_comment(std::string_view line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_string = !in_string;
    if (line[i] == '#' && !in_string) return line.substr(0, i);
  }
  return line;
}

const std::vector<std::string>& known_sections() {
  static const std::vector<std::string> kSections = [] {
    std::vector<std::string> sections = {""};
    for (const KeyDef& def : key_table()) {
      if (std::find(sections.begin(), sections.end(), def.section) ==
          sections.end()) {
        sections.emplace_back(def.section);
      }
    }
    return sections;
  }();
  return kSections;
}

}  // namespace

CampaignSpec CampaignSpec::from_toml(std::istream& in) {
  struct Assignment {
    std::string key;
    std::string value;
    std::size_t line;
  };
  std::vector<Assignment> assignments;
  std::string preset_name;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = util::trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw SpecError("line " + std::to_string(line_no) +
                        ": unterminated section header '" + std::string(line) +
                        "'");
      }
      const std::string section(util::trim(line.substr(1, line.size() - 2)));
      const auto& sections = known_sections();
      if (std::find(sections.begin(), sections.end(), section) ==
          sections.end()) {
        std::string msg = "line " + std::to_string(line_no) +
                          ": unknown section [" + section + "]";
        const std::string hint = util::closest_match(section, sections);
        if (!hint.empty()) msg += " — did you mean [" + hint + "]?";
        throw SpecError(msg);
      }
      continue;  // sections only organise the file; keys are globally flat
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw SpecError("line " + std::to_string(line_no) +
                      ": expected `key = value`, got '" + std::string(line) +
                      "'");
    }
    const std::string key(util::trim(line.substr(0, eq)));
    std::string value(util::trim(line.substr(eq + 1)));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    } else if (!value.empty() && value.front() == '"') {
      throw SpecError("line " + std::to_string(line_no) + ": " + key +
                      ": unterminated string");
    }
    if (key == "preset") {
      if (!preset_name.empty()) {
        throw SpecError("line " + std::to_string(line_no) +
                        ": duplicate `preset` key");
      }
      preset_name = value;
      continue;
    }
    assignments.push_back({key, std::move(value), line_no});
  }

  CampaignSpec spec =
      preset_name.empty() ? CampaignSpec{} : CampaignSpec::preset(preset_name);
  for (const Assignment& a : assignments) {
    try {
      spec.set(a.key, a.value);
    } catch (const SpecError& e) {
      throw SpecError("line " + std::to_string(a.line) + ": " + e.what());
    }
  }
  return spec;
}

CampaignSpec CampaignSpec::from_toml_string(const std::string& text) {
  std::istringstream in(text);
  return from_toml(in);
}

void CampaignSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw SpecError("cannot open '" + path + "' for writing");
  out << to_toml();
  if (!out.flush()) throw SpecError("write to '" + path + "' failed");
}

CampaignSpec CampaignSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError("cannot open spec file '" + path + "'");
  try {
    return from_toml(in);
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

void CampaignSpec::validate() const {
  std::vector<std::string> problems = sim::validate_config(core);
  const auto bad = [&](std::string msg) { problems.push_back(std::move(msg)); };

  if (batch_size == 0) {
    bad("batch must be >= 1 (got 0); use 1 for the classic serial "
        "feedback loop");
  }
  // `jobs` and `batch` interact through the sliding window: the executor
  // keeps at most `batch` jobs in flight across the whole window (job k
  // is generated only after iteration k - batch merged), so a worker
  // count above the batch size can never be saturated. Session resolves
  // jobs = 0 to all hardware threads and clips the result to batch_size;
  // that clip is a resolution rule, not an error, so an explicit
  // jobs > batch spec stays valid (it just runs with batch workers).
  if (budget.iterations == 0) {
    bad("iterations must be >= 1 (got 0); campaigns need an iteration "
        "budget");
  }
  if (fuzzer.corpus_max == 0) bad("corpus_max must be >= 1 (got 0)");
  if (fuzzer.splice_percent > 100) {
    bad("splice_percent must be <= 100 (got " +
        std::to_string(fuzzer.splice_percent) + ")");
  }
  if (!fuzzer.use_special_seeds && fuzzer.random_seed_count == 0) {
    bad("random_seed_count must be >= 1 when special_seeds is off — the "
        "corpus would start empty");
  }
  if (fuzzer.mutator.min_stack == 0 ||
      fuzzer.mutator.min_stack > fuzzer.mutator.max_stack) {
    bad("mutation stack bounds must satisfy 1 <= mutation_min_stack <= "
        "mutation_max_stack (got " +
        std::to_string(fuzzer.mutator.min_stack) + ".." +
        std::to_string(fuzzer.mutator.max_stack) + ")");
  }
  if (fuzzer.mutator.max_code_len == 0) {
    bad("max_code_len must be >= 1 (got 0)");
  }
  if (pdlc.max_channels == 0) bad("pdlc_max_channels must be >= 1 (got 0)");
  if (!fuzzer.replay_program_hex.empty()) {
    try {
      const riscv::Program p = riscv::Program::from_hex(
          fuzzer.replay_program_hex);
      if (p.empty()) bad("replay_program decodes to an empty program");
    } catch (const std::exception& e) {
      bad(std::string("replay_program: ") + e.what());
    }
  }
  if (triage == TriageMode::kFull && triage_out.empty()) {
    bad("triage_out must name a directory when triage = full");
  }
  if (state_interval > 0 && state_out.empty()) {
    bad("state_interval needs state_out — a cadence without a state file "
        "path writes nothing");
  }

  if (!problems.empty()) {
    throw SpecError("invalid spec '" + name + "':\n  - " +
                    util::join(problems, "\n  - "));
  }
}

bool CampaignSpec::operator==(const CampaignSpec& other) const {
  const auto a = fields();
  const auto b = other.fields();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].value != b[i].value) return false;
  }
  return true;
}

}  // namespace specure::core
