#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "core/report.hpp"

namespace specure::core {
namespace {

CampaignResult sample_result() {
  CampaignResult r;
  r.pdlc_total = 6242;
  r.total_windows = 10;
  r.mispredicted_windows = 4;
  r.seconds = 1.5;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    IterationRecord rec;
    rec.iteration = i;
    rec.covered_pdlc = i * 10;
    rec.coverage_points = i;
    rec.vulns_found = i >= 5 ? 1 : 0;
    r.history.push_back(rec);
  }
  VulnReport v;
  v.kind = VulnKind::kDirectLeak;
  v.sink_signal = "core.rf.x7";
  v.before = 0;
  v.after = 99;
  v.window.start_cycle = 8;
  v.window.end_cycle = 28;
  v.window.inst = 0x00528463;  // BEQ
  v.window.pc = 0x80000018;
  v.root_causes.push_back(
      {"core.rename.maptable_7", {"core.rename.maptable_7", "core.rf.x7"}});
  r.first_detection[finding_key(v)] = 5;
  r.vulns.push_back(std::move(v));
  SpecWindow w;
  w.start_cycle = 8;
  w.end_cycle = 28;
  w.inst = 0x00528463;
  w.pc = 0x80000018;
  w.mispredicted = true;
  r.mst_sample.push_back(w);
  return r;
}

TEST(Report, TextContainsFindingsAndMst) {
  std::ostringstream os;
  write_text_report(os, sample_result());
  const std::string text = os.str();
  EXPECT_NE(text.find("direct-leak"), std::string::npos);
  EXPECT_NE(text.find("core.rf.x7"), std::string::npos);
  EXPECT_NE(text.find("CWE-1342"), std::string::npos);
  EXPECT_NE(text.find("core.rename.maptable_7"), std::string::npos);
  EXPECT_NE(text.find("first detected at iteration 5"), std::string::npos);
  EXPECT_NE(text.find("Misspeculation Table"), std::string::npos);
  EXPECT_NE(text.find("BEQ"), std::string::npos);
}

TEST(Report, JsonWellFormedAndComplete) {
  const std::string json = json_report(sample_result());
  // Structural spot checks (no JSON library in the toolchain).
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"direct-leak\""), std::string::npos);
  EXPECT_NE(json.find("\"pdlc_total\": 6242"), std::string::npos);
  EXPECT_NE(json.find("\"after\": 99"), std::string::npos);
  EXPECT_NE(json.find("\"history\""), std::string::npos);
  // Balanced braces/brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(Report, JsonHistoryDownsampled) {
  const std::string json = json_report(sample_result(), 5);
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"iteration\"", pos)) != std::string::npos; ++pos) {
    ++count;
  }
  EXPECT_LE(count, 6u);
  EXPECT_GE(count, 4u);
}

TEST(Report, TextEchoesTheScenario) {
  CampaignSpec spec = CampaignSpec::preset("zenbleed");
  spec.rng_seed = 77;
  std::ostringstream os;
  write_text_report(os, sample_result(), &spec);
  const std::string text = os.str();
  EXPECT_NE(text.find("scenario:              zenbleed"), std::string::npos);
  EXPECT_NE(text.find("feedback:              lp"), std::string::npos);
  EXPECT_NE(text.find("rng seed:              77"), std::string::npos);
  EXPECT_NE(text.find("zenbleed=on"), std::string::npos);
}

// Minimal scanner for the flat {"key": value, ...} spec object the
// report embeds (no nested objects inside it, by construction).
std::vector<std::pair<std::string, std::string>> parse_flat_object(
    const std::string& object) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while ((pos = object.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = object.find('"', pos + 1);
    const std::string key = object.substr(pos + 1, key_end - pos - 1);
    std::size_t value_begin = object.find(':', key_end) + 1;
    while (object[value_begin] == ' ') ++value_begin;
    std::size_t value_end;
    if (object[value_begin] == '"') {
      value_end = object.find('"', value_begin + 1) + 1;
      out.emplace_back(key, object.substr(value_begin + 1,
                                          value_end - value_begin - 2));
    } else {
      value_end = object.find_first_of(",}", value_begin);
      out.emplace_back(key, object.substr(value_begin,
                                          value_end - value_begin));
    }
    pos = value_end;
  }
  return out;
}

TEST(Report, JsonSpecEchoRoundTripsIntoAnEqualSpec) {
  CampaignSpec spec = CampaignSpec::preset("cache-monitor");
  spec.set("rob_entries", "32");
  spec.rng_seed = 123;
  spec.budget.iterations = 20;

  const CampaignResult result = sample_result();
  const std::string json = json_report(result, 64, &spec);

  // Extract the flat "spec" object.
  const std::size_t begin = json.find("\"spec\": {");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t open = json.find('{', begin);
  const std::size_t close = json.find('}', open);
  const std::string object = json.substr(open, close - open + 1);

  // Re-applying every echoed key yields the original spec.
  CampaignSpec rebuilt;
  for (const auto& [key, value] : parse_flat_object(object)) {
    rebuilt.set(key, value);
  }
  EXPECT_TRUE(rebuilt == spec);
  EXPECT_EQ(rebuilt.core.rob_entries, 32u);
  EXPECT_EQ(rebuilt.rng_seed, 123u);
  EXPECT_TRUE(rebuilt.detector.monitor_cache);

  // The result fields still match the campaign that was reported.
  EXPECT_NE(json.find("\"iterations\": " +
                      std::to_string(result.history.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"pdlc_total\": " +
                      std::to_string(result.pdlc_total)),
            std::string::npos);

  // Without a spec the report omits the echo (back-compat schema).
  EXPECT_EQ(json_report(result).find("\"spec\""), std::string::npos);
}

/// A one-instruction program (ECALL) in the report's hex encoding.
std::string ecall_hex() {
  riscv::Program program;
  program.code = {0x00000073};
  return program.to_hex();
}

TEST(Report, ParseRejectsTrailingGarbageAndANumericSignature) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    try {
      parse_json_report(in);
    } catch (const SpecError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string trailing =
      rejects("{\"findings\": []} this is not json");
  EXPECT_NE(trailing.find("JSON report: line 1: trailing"), std::string::npos)
      << trailing;
  const std::string numeric =
      rejects("{\"findings\": [{\"signature\": 5, \"program\": \"" +
              ecall_hex() + "\"}]}");
  EXPECT_NE(numeric.find("signature"), std::string::npos) << numeric;
}

TEST(Report, ParseDecodesUnicodeEscapesToUtf8) {
  std::istringstream in(
      "{\"findings\": [{\"signature\": \"caf\\u00e9\", "
      "\"program\": \"" +
      ecall_hex() + "\"}]}");
  const ParsedReport parsed = parse_json_report(in);
  ASSERT_EQ(parsed.findings.size(), 1u);
  EXPECT_EQ(parsed.findings[0].signature, "caf\xc3\xa9");
}

TEST(Report, MaxU64SpecValuesRoundTripExactly) {
  CampaignSpec spec = CampaignSpec::preset("full");
  spec.set("seed", "18446744073709551615");
  std::istringstream in(json_report(sample_result(), 64, &spec));
  const ParsedReport parsed = parse_json_report(in);
  ASSERT_TRUE(parsed.has_spec);
  EXPECT_EQ(parsed.spec.rng_seed, 18446744073709551615ull);
  EXPECT_TRUE(parsed.spec == spec);
}

TEST(Report, EmptyCampaign) {
  CampaignResult empty;
  std::ostringstream text, json;
  write_text_report(text, empty);
  write_json_report(json, empty);
  EXPECT_NE(text.str().find("findings:              0"), std::string::npos);
  EXPECT_NE(json.str().find("\"findings\": ["), std::string::npos);
}

}  // namespace
}  // namespace specure::core
