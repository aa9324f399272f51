// Triage subsystem coverage: structural leakage signatures (the dedup
// axis), the parallel deterministic minimizer, repro bundles, the
// Session triage stage, and the JSON report round-trip feeding
// `specure triage REPORT.json`.
//
// The acceptance contract pinned here: a full-preset finding minimizes
// to <= 25% of its original program length, the minimized repro
// re-triggers the *identical* signature when its repro.toml is run
// through a fresh Session (the `specure run repro.toml` path), and
// minimization output is bit-identical across jobs=1 and jobs=4.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "core/session.hpp"
#include "riscv/disasm.hpp"
#include "triage/repro.hpp"
#include "triage/signature.hpp"
#include "triage/triage.hpp"

namespace specure {
namespace {

using core::CampaignResult;
using core::CampaignSpec;
using core::Session;
using core::VulnReport;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "specure_triage/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The shared short full-preset campaign every pipeline test reuses:
/// finds the special-seed cache-residue leaks within 10 iterations.
CampaignSpec full_spec() {
  CampaignSpec spec = CampaignSpec::preset("full");
  spec.rng_seed = 1;
  spec.batch_size = 4;
  spec.jobs = 1;
  spec.budget.iterations = 10;
  spec.progress_interval = 0;
  return spec;
}

// ---------------------------------------------------------- signatures --

TEST(Signature, NormalizeStructureStripsEntryIndices) {
  EXPECT_EQ(triage::normalize_structure("core.dcache.tag_0_1"),
            "core.dcache.tag");
  EXPECT_EQ(triage::normalize_structure("core.rename.maptable_31"),
            "core.rename.maptable");
  EXPECT_EQ(triage::normalize_structure("core.rf.x7"), "core.rf.x7");
  EXPECT_EQ(triage::normalize_structure("core.lsu.addr"), "core.lsu.addr");
}

TEST(Signature, DistinguishesDisjointTaintPaths) {
  VulnReport a;
  a.kind = core::VulnKind::kDirectLeak;
  a.sink_signal = "core.rf.x7";
  a.window.mispredicted = true;
  a.root_causes.push_back(
      {"core.bpred.ghist", {"core.bpred.ghist", "core.rf.x7"}});
  VulnReport b = a;
  b.root_causes.clear();
  b.root_causes.push_back(
      {"core.tlb.vpn_3",
       {"core.tlb.vpn_3", "core.lsu.addr", "core.rf.x7"}});

  const std::string key_a = triage::compute_signature(a, {"core.rf.x7"}).key();
  const std::string key_b = triage::compute_signature(b, {"core.rf.x7"}).key();
  // Same kind+sink — the old finding_key collapses these two mechanisms.
  EXPECT_EQ(core::finding_key(a), core::finding_key(b));
  EXPECT_NE(key_a, key_b);
  // The coarse key stays a prefix, so substring stops keep matching.
  EXPECT_EQ(key_a.rfind(core::finding_key(a), 0), 0u);
  EXPECT_EQ(key_b.rfind(core::finding_key(b), 0), 0u);
  EXPECT_NE(triage::signature_digest(key_a), triage::signature_digest(key_b));
  EXPECT_EQ(triage::signature_digest(key_a), triage::signature_digest(key_a));
}

// Regression for the finding_key collision: two findings with the same
// kind+sink but disjoint taint paths must both survive merger dedup.
TEST(Triage, MergerRetainsDistinctSignaturesInOneCoarseBucket) {
  const sim::CoreConfig cfg;
  const core::OfflineResult offline = core::run_offline_phase(cfg);
  const sim::Simulator sim(cfg);
  core::ResultMerger merger(offline, sim.signal_db(),
                            core::FeedbackMode::kLeakagePath,
                            core::LpPolicy::kAllSignals, 4);

  const auto report_with = [](const std::string& source) {
    VulnReport r;
    r.kind = core::VulnKind::kDirectLeak;
    r.sink_signal = "core.rf.x7";
    r.root_causes.push_back({source, {source, "core.rf.x7"}});
    r.signature = triage::compute_signature(r, {"core.rf.x7"}).key();
    return r;
  };

  core::WorkerResult result;
  result.iteration = 1;
  result.reports.push_back(report_with("core.bpred.ghist"));
  result.reports.push_back(report_with("core.tlb.vpn_0"));
  EXPECT_TRUE(merger.merge(std::move(result)));

  const CampaignResult& r = merger.result();
  ASSERT_EQ(r.vulns.size(), 2u);  // the old axis deduped these to one
  EXPECT_EQ(r.first_detection.size(), 2u);
  EXPECT_EQ(core::coarse_bucket_count(r), 1u);
}

// --------------------------------------------------------- minimization --

TEST(Triage, FullPresetMinimizesToQuarterAndIsJobsInvariant) {
  Session session(full_spec());
  const CampaignResult result = session.run();
  ASSERT_GE(result.vulns.size(), 2u);

  std::vector<triage::TriageInput> inputs;
  for (const VulnReport& v : result.vulns) {
    EXPECT_FALSE(v.signature.empty());
    EXPECT_FALSE(v.program.empty());
    inputs.push_back({v.signature, v.program});
  }
  // Distinct signatures per finding (pinned on the full preset).
  EXPECT_NE(inputs[0].signature, inputs[1].signature);

  triage::TriageOptions serial;
  serial.mode = core::TriageMode::kOn;
  serial.jobs = 1;
  triage::TriageOptions parallel = serial;
  parallel.jobs = 4;
  const triage::TriageReport one =
      triage::run_triage(session.spec(), session.offline(), inputs, serial);
  const triage::TriageReport four =
      triage::run_triage(session.spec(), session.offline(), inputs, parallel);

  ASSERT_EQ(one.findings.size(), inputs.size());
  ASSERT_EQ(four.findings.size(), inputs.size());
  bool quarter = false;
  for (std::size_t i = 0; i < one.findings.size(); ++i) {
    const triage::TriagedFinding& f = one.findings[i];
    EXPECT_TRUE(f.reproduced);
    EXPECT_FALSE(f.leak_instructions.empty());
    EXPECT_LT(f.minimized.code.size(), f.original.code.size());
    // Bit-identical minimization for any jobs count at a fixed seed.
    EXPECT_EQ(f.minimized.code, four.findings[i].minimized.code);
    EXPECT_EQ(f.minimized.data, four.findings[i].minimized.data);
    EXPECT_EQ(f.leak_instructions, four.findings[i].leak_instructions);
    if (f.minimized.code.size() * 4 <= f.original.code.size()) quarter = true;
  }
  // The acceptance floor: at least one finding reduces to <= 25%.
  EXPECT_TRUE(quarter);
}

// ------------------------------------------------------- repro bundles --

TEST(Triage, ReproBundleVerifiesAndReRunsThroughASession) {
  const std::string out = temp_dir("bundles");
  Session session(full_spec());
  const CampaignResult result = session.run();
  ASSERT_FALSE(result.vulns.empty());

  std::vector<triage::TriageInput> inputs;
  for (const VulnReport& v : result.vulns) {
    inputs.push_back({v.signature, v.program});
  }
  triage::TriageOptions options;
  options.mode = core::TriageMode::kFull;
  options.out_dir = out;
  options.jobs = 1;
  const triage::TriageReport triaged =
      triage::run_triage(session.spec(), session.offline(), inputs, options);

  for (const triage::TriagedFinding& f : triaged.findings) {
    ASSERT_FALSE(f.bundle_dir.empty());
    EXPECT_TRUE(f.verified) << f.signature;
    EXPECT_TRUE(std::filesystem::exists(f.bundle_dir + "/repro.S"));
    EXPECT_TRUE(std::filesystem::exists(f.bundle_dir + "/repro.toml"));
    EXPECT_TRUE(std::filesystem::exists(f.bundle_dir + "/repro.vcd"));

    // repro.S: leak annotations present, and every instruction line is
    // re-assemblable to the exact word it was disassembled from.
    std::ifstream asm_in(f.bundle_dir + "/repro.S");
    std::string line;
    bool leak_marked = false;
    std::size_t parsed = 0;
    while (std::getline(asm_in, line)) {
      if (line.find("# leak") != std::string::npos) leak_marked = true;
      if (line.rfind("    ", 0) != 0) continue;
      std::istringstream fields(line);
      std::string pc_hex, word_hex;
      fields >> pc_hex >> word_hex;
      pc_hex.pop_back();  // trailing ':'
      const std::uint64_t pc = std::stoull(pc_hex, nullptr, 16);
      const std::uint32_t word =
          static_cast<std::uint32_t>(std::stoul(word_hex, nullptr, 16));
      std::string text = line.substr(line.find(word_hex) + word_hex.size());
      const std::size_t comment = text.find('#');
      if (comment != std::string::npos) text = text.substr(0, comment);
      while (!text.empty() && (text.front() == ' ')) text.erase(0, 1);
      while (!text.empty() && (text.back() == ' ')) text.pop_back();
      EXPECT_EQ(riscv::assemble(text, pc), word) << text;
      ++parsed;
    }
    EXPECT_TRUE(leak_marked);
    EXPECT_EQ(parsed, f.minimized.code.size());

    // The `specure run repro.toml` path: a fresh Session over the saved
    // spec must re-trigger the identical signature in one iteration.
    const CampaignSpec repro = CampaignSpec::load(f.bundle_dir + "/repro.toml");
    EXPECT_EQ(repro.budget.iterations, 1u);
    Session rerun(repro);
    const CampaignResult res = rerun.run();
    EXPECT_EQ(res.first_detection.count(f.signature), 1u) << f.signature;
  }
}

// ------------------------------------------------------ session wiring --

TEST(Triage, SessionTriageStageFiresEventsWithoutPerturbingTheCampaign) {
  CampaignSpec off_spec = full_spec();
  Session off_session(off_spec);
  const CampaignResult baseline = off_session.run();
  EXPECT_EQ(off_session.triage_report(), nullptr);

  CampaignSpec on_spec = full_spec();
  on_spec.triage = core::TriageMode::kOn;
  Session on_session(on_spec);
  std::vector<std::string> event_digests;
  on_session.on_finding_minimized(
      [&](const triage::MinimizedEvent& e) {
        EXPECT_TRUE(e.reproduced);
        EXPECT_LT(e.minimized_len, e.original_len);
        EXPECT_TRUE(e.bundle_dir.empty());  // bundles need triage=full
        event_digests.push_back(e.digest);
      });
  const CampaignResult triaged = on_session.run();

  // The triage stage runs after the campaign: results are identical.
  EXPECT_EQ(baseline.first_detection, triaged.first_detection);
  EXPECT_EQ(baseline.history.size(), triaged.history.size());

  const triage::TriageReport* report = on_session.triage_report();
  ASSERT_NE(report, nullptr);
  ASSERT_EQ(report->findings.size(), triaged.vulns.size());
  ASSERT_EQ(event_digests.size(), report->findings.size());
  for (std::size_t i = 0; i < report->findings.size(); ++i) {
    EXPECT_EQ(event_digests[i], report->findings[i].digest);
  }
}

// ------------------------------------------------- JSON report round-trip --

TEST(Triage, JsonReportRoundTripsIntoTriageInputs) {
  Session session(full_spec());
  const CampaignResult result = session.run();
  ASSERT_FALSE(result.vulns.empty());

  const CampaignSpec spec = session.spec();
  std::istringstream in(core::json_report(result, 64, &spec));
  const core::ParsedReport parsed = core::parse_json_report(in);
  EXPECT_TRUE(parsed.has_spec);
  EXPECT_EQ(parsed.spec.name, spec.name);
  EXPECT_EQ(parsed.spec.rng_seed, spec.rng_seed);
  EXPECT_TRUE(parsed.spec.detector.monitor_cache);
  ASSERT_EQ(parsed.findings.size(), result.vulns.size());
  for (std::size_t i = 0; i < parsed.findings.size(); ++i) {
    EXPECT_EQ(parsed.findings[i].signature, result.vulns[i].signature);
    EXPECT_EQ(parsed.findings[i].program, result.vulns[i].program);
  }
}

TEST(Triage, ParseJsonReportRejectsPreTriageReports) {
  std::istringstream in(
      "{\"findings\": [{\"kind\": \"direct-leak\", \"sink\": \"x\"}]}");
  EXPECT_THROW(core::parse_json_report(in), core::SpecError);
}

// ------------------------------------------------------------- replay --

TEST(Triage, ReplayProgramIsServedAsIterationOne) {
  riscv::Program replay;
  replay.code = {0x00100093, 0x00000073};  // ADDI RA,ZERO,1; ECALL
  replay.data = {1, 2, 3};

  fuzz::FuzzerOptions options;
  options.replay_program_hex = replay.to_hex();
  fuzz::Fuzzer fuzzer(options, 7);
  const fuzz::FuzzJob first = fuzzer.next_job();
  EXPECT_EQ(first.iteration, 1u);
  EXPECT_EQ(first.program, replay);

  CampaignSpec spec;
  spec.fuzzer.replay_program_hex = replay.to_hex();
  EXPECT_NO_THROW(spec.validate());
  // The key round-trips through the TOML subset.
  const CampaignSpec reloaded =
      CampaignSpec::from_toml_string(spec.to_toml());
  EXPECT_EQ(reloaded.fuzzer.replay_program_hex, replay.to_hex());

  spec.fuzzer.replay_program_hex = "zz";
  EXPECT_THROW(spec.validate(), core::SpecError);
}

TEST(Triage, FullModeRequiresAnOutDir) {
  CampaignSpec spec;
  spec.triage = core::TriageMode::kFull;
  spec.triage_out.clear();
  EXPECT_THROW(spec.validate(), core::SpecError);
}

}  // namespace
}  // namespace specure
