#include "core/vuln_detect.hpp"

#include <algorithm>

#include "riscv/isa.hpp"
#include "triage/signature.hpp"
#include "util/bits.hpp"
#include "util/strings.hpp"

namespace specure::core {

std::string_view vuln_kind_name(VulnKind kind) {
  switch (kind) {
    case VulnKind::kDirectLeak: return "direct-leak";
    case VulnKind::kCacheResidue: return "cache-residue";
  }
  return "?";
}

std::string finding_key(const VulnReport& report) {
  std::string key =
      std::string(vuln_kind_name(report.kind)) + ":" + report.sink_signal;
  if (report.kind == VulnKind::kCacheResidue) {
    // Conditional-branch (v1-class) and indirect-jump (v2-class) windows
    // are distinct vulnerabilities even when the residue lands in the
    // same structure.
    key += report.window.has_indirect_opener() ? ":indirect" : ":conditional";
  }
  return key;
}

std::string dedup_key(const VulnReport& report) {
  return report.signature.empty() ? finding_key(report) : report.signature;
}

VulnerabilityDetector::VulnerabilityDetector(const ift::Ifg& ifg,
                                             const ift::PdlcList& pdlc,
                                             const snapshot::SignalDb& db,
                                             DetectorOptions options)
    : ifg_(ifg), pdlc_(pdlc), db_(db), options_(options) {}

bool VulnerabilityDetector::delta_explained_by_commits(
    const snapshot::SignalDb& db, snapshot::SignalId sig,
    const std::vector<sim::CommitRecord>& commits, std::uint64_t from,
    std::uint64_t to) const {
  const std::string& name = db.info(sig).name;
  // Commits up to the drain horizon past the window end still explain
  // in-window writebacks of correct-path instructions (see
  // DetectorOptions::commit_drain_horizon).
  const std::uint64_t horizon = to + options_.commit_drain_horizon;
  auto in_window = [from, horizon](const sim::CommitRecord& c) {
    return c.cycle > from && c.cycle <= horizon;
  };
  if (util::starts_with(name, "core.rf.x")) {
    const unsigned reg = static_cast<unsigned>(
        std::stoul(name.substr(std::string("core.rf.x").size())));
    for (const auto& c : commits) {
      if (in_window(c) && c.writes_rd && c.rd == reg) return true;
    }
    return false;
  }
  if (util::starts_with(name, "core.csr.")) {
    const std::string csr_name = name.substr(std::string("core.csr.").size());
    for (const auto& c : commits) {
      if (in_window(c) && c.writes_csr &&
          riscv::csr::name(c.csr) == csr_name) {
        return true;
      }
    }
    return false;
  }
  if (name == "core.commit.pc") {
    // The architectural PC advances with every bona-fide commit.
    return std::any_of(commits.begin(), commits.end(), in_window);
  }
  return false;
}

std::vector<RootCause> VulnerabilityDetector::find_root_causes(
    const std::string& sink_name, const snapshot::Trace& trace,
    std::uint64_t from, std::uint64_t to) const {
  std::vector<RootCause> out;
  const ift::NodeId sink = ifg_.find(sink_name);
  if (sink == ift::kInvalidNode) return out;
  std::vector<std::uint64_t> changed;
  trace.changed_words(from, to, changed);
  for (std::size_t idx : pdlc_.by_sink(sink)) {
    const ift::Pdlc& ch = pdlc_[idx];
    const std::string& src_name = ifg_.node(ch.source).name;
    const snapshot::SignalId sid = db_.find(src_name);
    if (sid == snapshot::kInvalidSignal || !util::word_bit(changed, sid)) {
      continue;
    }
    RootCause rc;
    rc.source_signal = src_name;
    for (ift::NodeId n : ch.path) rc.path.push_back(ifg_.node(n).name);
    out.push_back(std::move(rc));
    if (out.size() >= 8) break;  // bound the report
  }
  return out;
}

std::vector<VulnReport> VulnerabilityDetector::analyze(
    const sim::RunResult& run, const std::vector<SpecWindow>& windows) const {
  std::vector<VulnReport> reports;
  const auto leaks = detect_leakage(run.trace, windows);
  const auto tainted_id = db_.find("core.lsu.tainted_access");

  for (const auto& leak : leaks) {
    const std::uint64_t from = leak.window.start_cycle;
    const std::uint64_t to = leak.window.end_cycle;
    bool cache_changed = false;

    // The window-opening instruction itself is not transient — it resolves
    // and commits. A JALR opener writes its link register at resolution
    // (inside the window) but commits just after it closes, so its rd
    // write is discharged structurally.
    const riscv::DecodedInst opener = riscv::decode(leak.window.inst);
    const bool opener_writes_rd =
        opener.op == riscv::Op::kJalr && opener.rd != 0;
    const std::string opener_rf =
        "core.rf.x" + std::to_string(opener.rd);

    // Window-local pass: the reports plus the window's full unexplained
    // architectural delta mask — the signature's diff-mask component is
    // shared by every finding in the window.
    std::vector<VulnReport> window_reports;
    std::vector<std::string> unexplained_mask;
    for (const auto& delta : leak.deltas) {
      const auto& info = db_.info(delta.id);
      if (util::starts_with(info.name, "core.dcache.")) cache_changed = true;
      if (info.cls != snapshot::SignalClass::kArchitectural) continue;
      if (opener_writes_rd && info.name == opener_rf) continue;
      if (delta_explained_by_commits(db_, delta.id, run.commits, from, to)) {
        continue;
      }
      unexplained_mask.push_back(info.name);
      VulnReport rep;
      rep.kind = VulnKind::kDirectLeak;
      rep.window = leak.window;
      rep.sink_signal = info.name;
      rep.before = delta.before;
      rep.after = delta.after;
      rep.root_causes = find_root_causes(info.name, run.trace, from, to);
      window_reports.push_back(std::move(rep));
    }

    if (options_.monitor_cache && cache_changed &&
        tainted_id != snapshot::kInvalidSignal) {
      // Spectre mode: a tainted (secret-derived-address) speculative
      // access inside this squashed window left persistent cache residue.
      // Pulse detection walks the signal's change events in (from, to]
      // instead of materializing every in-window snapshot.
      if (run.trace.any_nonzero(tainted_id, from, to)) {
        VulnReport rep;
        rep.kind = VulnKind::kCacheResidue;
        rep.window = leak.window;
        rep.sink_signal = "core.dcache";
        for (const auto& delta : leak.deltas) {
          const auto& info = db_.info(delta.id);
          if (util::starts_with(info.name, "core.dcache.") &&
              rep.root_causes.size() < 8) {
            rep.root_causes.push_back(
                {info.name, {"core.lsu.addr", info.name}});
          }
        }
        window_reports.push_back(std::move(rep));
      }
    }

    for (auto& rep : window_reports) {
      rep.signature =
          triage::compute_signature(rep, unexplained_mask).key();
      reports.push_back(std::move(rep));
    }
  }
  return reports;
}

}  // namespace specure::core
