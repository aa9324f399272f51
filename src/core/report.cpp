#include "core/report.hpp"

#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "core/mst.hpp"
#include "riscv/disasm.hpp"
#include "util/json.hpp"

namespace specure::core {

void write_text_report(std::ostream& os, const CampaignResult& result,
                       const CampaignSpec* spec) {
  os << "Specure campaign report\n"
     << "=======================\n";
  if (spec != nullptr) {
    os << "scenario:              " << spec->name << "\n"
       << "feedback:              " << feedback_mode_name(spec->feedback)
       << " (" << lp_policy_name(spec->lp_policy) << ")\n"
       << "rng seed:              " << spec->rng_seed << "\n"
       << "execution:             jobs=" << spec->jobs
       << " batch=" << spec->batch_size << "\n"
       << "emulations:            mwait="
       << (spec->core.vuln.mwait_emulation ? "on" : "off") << " zenbleed="
       << (spec->core.vuln.zenbleed_emulation ? "on" : "off")
       << " cache-monitor="
       << (spec->detector.monitor_cache ? "on" : "off") << "\n";
  }
  os << "iterations:            " << result.history.size() << "\n"
     << "wall-clock seconds:    " << result.seconds << "\n"
     << "iterations/sec:        "
     << (result.seconds > 0
             ? static_cast<double>(result.history.size()) / result.seconds
             : 0.0)
     << "\n"
     << "speculative windows:   " << result.total_windows << " ("
     << result.mispredicted_windows << " misspeculated)\n"
     << "PDLC channels:         " << result.pdlc_total << "\n";
  if (!result.history.empty()) {
    os << "LP coverage:           " << result.history.back().covered_pdlc
       << "\n"
       << "code coverage points:  " << result.history.back().coverage_points
       << "\n";
  }
  os << "findings:              " << result.vulns.size() << " ("
     << coarse_bucket_count(result) << " coarse buckets)\n\n";

  for (std::size_t i = 0; i < result.vulns.size(); ++i) {
    const VulnReport& v = result.vulns[i];
    os << "[" << i + 1 << "] " << vuln_kind_name(v.kind) << " (" << v.cwe
       << ")\n"
       << "    sink:   " << v.sink_signal << " (0x" << std::hex << v.before
       << " -> 0x" << v.after << std::dec << ")\n"
       << "    window: cycles [" << v.window.start_cycle << ", "
       << v.window.end_cycle << "], opened by "
       << riscv::disassemble(v.window.inst, v.window.pc) << "\n";
    if (!v.signature.empty()) {
      os << "    signature: " << v.signature << "\n";
    }
    auto it = result.first_detection.find(dedup_key(v));
    if (it != result.first_detection.end()) {
      os << "    first detected at iteration " << it->second << "\n";
    }
    for (const RootCause& rc : v.root_causes) {
      os << "    root cause: " << rc.source_signal;
      if (rc.path.size() > 1) {
        os << " (path:";
        for (const auto& hop : rc.path) os << " " << hop;
        os << ")";
      }
      os << "\n";
    }
  }

  if (!result.mst_sample.empty()) {
    os << "\nMisspeculation Table (sample)\n"
       << "ID\tStart\tEnd\tInstruction\tInstruction(Readable)\n";
    for (std::size_t i = 0; i < result.mst_sample.size(); ++i) {
      os << format_mst_row(i + 1, result.mst_sample[i]) << "\n";
    }
  }
}

std::string spec_json(const CampaignSpec& spec) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const SpecField& f : spec.fields()) {
    os << (first ? "" : ", ") << '"' << util::escape_json(f.key) << "\": ";
    if (f.quoted) {
      os << '"' << util::escape_json(f.value) << '"';
    } else {
      os << f.value;
    }
    first = false;
  }
  os << "}";
  return os.str();
}

void write_json_report(std::ostream& os, const CampaignResult& result,
                       std::size_t history_points, const CampaignSpec* spec) {
  os << "{\n  \"campaign\": {"
     << "\"iterations\": " << result.history.size()
     << ", \"seconds\": " << result.seconds
     << ", \"windows\": " << result.total_windows
     << ", \"mispredicted_windows\": " << result.mispredicted_windows
     << ", \"pdlc_total\": " << result.pdlc_total;
  if (!result.history.empty()) {
    os << ", \"covered_pdlc\": " << result.history.back().covered_pdlc
       << ", \"coverage_points\": " << result.history.back().coverage_points;
  }
  os << "},\n";
  if (spec != nullptr) {
    os << "  \"spec\": " << spec_json(*spec) << ",\n";
  }
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < result.vulns.size(); ++i) {
    const VulnReport& v = result.vulns[i];
    os << (i == 0 ? "" : ",") << "\n    {\"kind\": \""
       << vuln_kind_name(v.kind) << "\", \"key\": \""
       << util::escape_json(finding_key(v)) << "\", \"signature\": \""
       << util::escape_json(v.signature) << "\", \"program\": \""
       << v.program.to_hex() << "\", \"cwe\": \""
       << util::escape_json(v.cwe) << "\", \"sink\": \""
       << util::escape_json(v.sink_signal) << "\", \"before\": " << v.before
       << ", \"after\": " << v.after
       << ", \"window\": {\"start\": " << v.window.start_cycle
       << ", \"end\": " << v.window.end_cycle
       << ", \"opener\": \""
       << util::escape_json(riscv::disassemble(v.window.inst, v.window.pc))
       << "\"}, \"root_causes\": [";
    for (std::size_t r = 0; r < v.root_causes.size(); ++r) {
      os << (r == 0 ? "" : ", ") << "\""
         << util::escape_json(v.root_causes[r].source_signal) << "\"";
    }
    os << "]}";
  }
  os << "\n  ],\n  \"mst\": [";
  for (std::size_t i = 0; i < result.mst_sample.size(); ++i) {
    const SpecWindow& w = result.mst_sample[i];
    os << (i == 0 ? "" : ",") << "\n    {\"start\": " << w.start_cycle
       << ", \"end\": " << w.end_cycle << ", \"inst\": " << w.inst
       << ", \"readable\": \""
       << util::escape_json(riscv::disassemble(w.inst, w.pc)) << "\"}";
  }
  os << "\n  ],\n  \"history\": [";
  const std::size_t stride =
      result.history.empty()
          ? 1
          : std::max<std::size_t>(1, result.history.size() / history_points);
  bool first = true;
  for (std::size_t i = stride - 1; i < result.history.size(); i += stride) {
    const IterationRecord& rec = result.history[i];
    os << (first ? "" : ",") << "\n    {\"iteration\": " << rec.iteration
       << ", \"covered_pdlc\": " << rec.covered_pdlc
       << ", \"coverage_points\": " << rec.coverage_points
       << ", \"vulns\": " << rec.vulns_found << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

std::string json_report(const CampaignResult& result,
                        std::size_t history_points,
                        const CampaignSpec* spec) {
  std::ostringstream os;
  write_json_report(os, result, history_points, spec);
  return os.str();
}

ParsedReport parse_json_report(std::istream& is) {
  using util::Json;
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  Json root;
  try {
    root = util::parse_json(text);
  } catch (const util::JsonError& e) {
    throw SpecError(std::string("JSON report: ") + e.what());
  }
  if (root.kind != Json::Kind::kObject) {
    throw SpecError("JSON report: top level is not an object");
  }
  ParsedReport out;
  if (const Json* spec = root.find("spec")) {
    if (spec->kind != Json::Kind::kObject) {
      throw SpecError("JSON report: spec is not an object");
    }
    out.has_spec = true;
    for (std::size_t i = 0; i < spec->keys.size(); ++i) {
      const std::string& key = spec->keys[i];
      const Json& value = spec->values[i];
      try {
        // Back to the text CampaignSpec::set accepts: a number's token
        // as written, so u64 values round-trip exactly.
        if (value.kind == Json::Kind::kBool) {
          out.spec.set(key, value.boolean ? "true" : "false");
        } else if (value.kind == Json::Kind::kString ||
                   value.kind == Json::Kind::kNumber) {
          out.spec.set(key, value.text);
        } else {
          throw SpecError("expected a string, number or bool");
        }
      } catch (const SpecError& e) {
        throw SpecError(std::string("JSON report: spec.") + key + ": " +
                        e.what());
      }
    }
  }
  const Json* findings = root.find("findings");
  if (findings == nullptr || findings->kind != Json::Kind::kArray) {
    throw SpecError("JSON report: no findings array");
  }
  for (const Json& f : findings->items) {
    const Json* signature = f.find("signature");
    const Json* program = f.find("program");
    if (signature == nullptr || program == nullptr ||
        signature->kind != Json::Kind::kString ||
        program->kind != Json::Kind::kString || program->text.empty()) {
      throw SpecError(
          "JSON report: finding lacks string signature/program fields — "
          "regenerate the report with this build (`specure run --json`)");
    }
    ParsedReportFinding finding;
    finding.signature = signature->text;
    try {
      finding.program = riscv::Program::from_hex(program->text);
    } catch (const std::exception& e) {
      throw SpecError(std::string("JSON report: finding program: ") +
                      e.what());
    }
    out.findings.push_back(std::move(finding));
  }
  return out;
}

}  // namespace specure::core
