// CampaignSpec coverage: preset registry, key=value overrides with
// did-you-mean hints, validation messages, the TOML-subset round trip,
// and the acceptance property that a saved spec reloads to a
// bit-identical campaign result at a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_spec.hpp"
#include "core/session.hpp"
#include "sim/config.hpp"

namespace specure::core {
namespace {

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(CampaignSpecPresets, RegistryCoversTheEvaluationMatrix) {
  const auto& infos = CampaignSpec::presets();
  const auto has = [&](const std::string& name) {
    for (const auto& info : infos) {
      if (info.name == name) return true;
    }
    return false;
  };
  for (const char* name : {"default", "lp", "codecov", "mwait", "zenbleed",
                           "no-spec", "cache-monitor", "full"}) {
    EXPECT_TRUE(has(name)) << name;
  }

  EXPECT_TRUE(CampaignSpec::preset("zenbleed").core.vuln.zenbleed_emulation);
  EXPECT_TRUE(CampaignSpec::preset("mwait").core.vuln.mwait_emulation);
  EXPECT_TRUE(CampaignSpec::preset("cache-monitor").detector.monitor_cache);
  EXPECT_EQ(CampaignSpec::preset("codecov").feedback,
            FeedbackMode::kCodeCoverage);
  EXPECT_EQ(CampaignSpec::preset("no-spec").core.branch_resolve_latency, 1u);
  const CampaignSpec full = CampaignSpec::preset("full");
  EXPECT_TRUE(full.core.vuln.mwait_emulation);
  EXPECT_TRUE(full.core.vuln.zenbleed_emulation);
  EXPECT_TRUE(full.detector.monitor_cache);
  // Every preset validates out of the box and carries its own name.
  for (const auto& info : infos) {
    const CampaignSpec spec = CampaignSpec::preset(info.name);
    EXPECT_EQ(spec.name, info.name);
    EXPECT_NO_THROW(spec.validate()) << info.name;
  }
}

TEST(CampaignSpecPresets, UnknownNameSuggestsClosest) {
  const std::string msg =
      error_of([] { CampaignSpec::preset("zenblead"); });
  EXPECT_NE(msg.find("unknown preset"), std::string::npos) << msg;
  EXPECT_NE(msg.find("zenbleed"), std::string::npos) << msg;
}

TEST(CampaignSpecOverrides, SetParsesEveryValueKind) {
  CampaignSpec spec;
  spec.set("rob_entries", "32");
  EXPECT_EQ(spec.core.rob_entries, 32u);
  spec.set("zenbleed", "true");
  EXPECT_TRUE(spec.core.vuln.zenbleed_emulation);
  spec.set("feedback", "codecov");
  EXPECT_EQ(spec.feedback, FeedbackMode::kCodeCoverage);
  spec.set("lp_policy", "endpoints");
  EXPECT_EQ(spec.lp_policy, LpPolicy::kEndpoints);
  spec.set("max_seconds", "1.5");
  EXPECT_DOUBLE_EQ(spec.budget.max_seconds, 1.5);
  spec.set("name", "custom");
  EXPECT_EQ(spec.name, "custom");
  spec.apply_override("iterations=123");
  EXPECT_EQ(spec.budget.iterations, 123u);
  spec.apply_override(" batch = 4 ");  // whitespace tolerated
  EXPECT_EQ(spec.batch_size, 4u);
}

TEST(CampaignSpecOverrides, UnknownKeySuggestsClosest) {
  CampaignSpec spec;
  const std::string msg =
      error_of([&] { spec.set("rob_entrees", "4"); });
  EXPECT_NE(msg.find("unknown spec key"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rob_entries"), std::string::npos) << msg;
}

TEST(CampaignSpecOverrides, RemovedKeysAreRejected) {
  // tier, checkpoint and checkpoint_cache_mb selected prefix-reuse paths
  // that no longer exist, and pipeline an executor that no longer
  // exists: a spec naming them fails, never passes silently.
  CampaignSpec spec;
  const std::vector<std::pair<std::string, std::string>> removed = {
      {"tier", "fast"},
      {"checkpoint", "off"},
      {"checkpoint_cache_mb", "8"},
      {"pipeline", "barrier"}};
  for (const auto& [key, value] : removed) {
    const std::string msg = error_of([&] { spec.set(key, value); });
    EXPECT_NE(msg.find("unknown spec key '" + key + "'"), std::string::npos)
        << msg;
  }
  const std::string msg = error_of([] {
    CampaignSpec::from_toml_string("[campaign]\ncheckpoint = true\n");
  });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'checkpoint'"), std::string::npos) << msg;
  // Neither the key list (`specure presets --keys`) nor to_toml() names
  // them.
  const std::vector<std::string> keys = CampaignSpec::keys();
  const std::string toml = CampaignSpec{}.to_toml();
  for (const auto& [key, value] : removed) {
    EXPECT_EQ(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
    EXPECT_EQ(toml.find("\n" + key + " ="), std::string::npos) << key;
  }
}

TEST(CampaignSpecOverrides, BadValuesNameTheKeyAndExpectedForm) {
  CampaignSpec spec;
  EXPECT_NE(error_of([&] { spec.set("rob_entries", "lots"); })
                .find("not a non-negative integer"),
            std::string::npos);
  EXPECT_NE(error_of([&] { spec.set("mwait", "maybe"); }).find("true/false"),
            std::string::npos);
  EXPECT_NE(error_of([&] { spec.set("feedback", "toggle"); })
                .find("lp | codecov"),
            std::string::npos);
  EXPECT_NE(error_of([&] { spec.apply_override("no-equals-here"); })
                .find("key=value"),
            std::string::npos);
}

TEST(CampaignSpecValidate, ListsEveryProblemWithActionableText) {
  CampaignSpec spec;
  spec.core.dcache_line_bytes = 12;  // not a power of two
  spec.batch_size = 0;
  spec.budget.iterations = 0;
  const std::string msg = error_of([&] { spec.validate(); });
  EXPECT_NE(msg.find("power of two"), std::string::npos) << msg;
  EXPECT_NE(msg.find("batch must be >= 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("iterations must be >= 1"), std::string::npos) << msg;
}

TEST(CampaignSpecValidate, SimLayerProblemsSurface) {
  EXPECT_FALSE(sim::validate_config(sim::CoreConfig{}).size());
  sim::CoreConfig cfg;
  cfg.rob_entries = 1;
  cfg.phys_regs = 16;
  const auto problems = sim::validate_config(cfg);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("rob_entries"), std::string::npos);
  EXPECT_NE(problems[1].find("phys_regs"), std::string::npos);
}

TEST(CampaignSpecValidate, CorePresetRegistry) {
  sim::CoreConfig cfg;
  EXPECT_TRUE(sim::lookup_core_preset("no-spec", cfg));
  EXPECT_EQ(cfg.branch_resolve_latency, 1u);
  EXPECT_FALSE(sim::lookup_core_preset("nope", cfg));
  EXPECT_FALSE(sim::core_preset_names().empty());
}

TEST(CampaignSpecToml, RoundTripIsExact) {
  CampaignSpec spec = CampaignSpec::preset("mwait");
  spec.set("rob_entries", "32");
  spec.set("seed", "99");
  spec.set("feedback", "codecov");
  spec.budget.plateau = 250;
  spec.budget.max_seconds = 2.5;
  // Quoted values may hold anything TOML must escape, and "#", which
  // starts a comment outside a string.
  spec.name = "a\"#b\\c\td\ne";
  spec.vcd_out = "waves #1/\"q\"\\";
  spec.triage_out = "tri\tage\n#out";

  const CampaignSpec reloaded = CampaignSpec::from_toml_string(spec.to_toml());
  EXPECT_TRUE(spec == reloaded);
  EXPECT_EQ(reloaded.core.rob_entries, 32u);
  EXPECT_EQ(reloaded.rng_seed, 99u);
  EXPECT_EQ(reloaded.feedback, FeedbackMode::kCodeCoverage);
  EXPECT_EQ(reloaded.budget.plateau, 250u);
  EXPECT_DOUBLE_EQ(reloaded.budget.max_seconds, 2.5);
  EXPECT_EQ(reloaded.name, spec.name);
  EXPECT_EQ(reloaded.vcd_out, spec.vcd_out);
  EXPECT_EQ(reloaded.triage_out, spec.triage_out);
}

TEST(CampaignSpecToml, PresetKeySeedsTheSpec) {
  const CampaignSpec spec = CampaignSpec::from_toml_string(
      "# comment\n"
      "preset = \"zenbleed\"\n"
      "[core]\n"
      "rob_entries = 24  # trailing comment\n");
  EXPECT_TRUE(spec.core.vuln.zenbleed_emulation);
  EXPECT_EQ(spec.core.rob_entries, 24u);
  EXPECT_EQ(spec.name, "zenbleed");
}

TEST(CampaignSpecToml, ErrorsCarryLineNumbers) {
  EXPECT_NE(error_of([] {
              CampaignSpec::from_toml_string("[core]\nrob_entrees = 4\n");
            }).find("line 2"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              CampaignSpec::from_toml_string("[quantum]\n");
            }).find("unknown section"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              CampaignSpec::from_toml_string("just words\n");
            }).find("key = value"),
            std::string::npos);
  EXPECT_NE(error_of([] {
              CampaignSpec::from_toml_string(
                  "preset = \"a\"\npreset = \"b\"\n");
            }).find("duplicate"),
            std::string::npos);
}

TEST(CampaignSpecToml, SaveLoadReproducesTheCampaignBitIdentically) {
  CampaignSpec spec = CampaignSpec::preset("zenbleed");
  spec.rng_seed = 5;
  spec.batch_size = 8;
  spec.budget.iterations = 60;

  const std::string path = ::testing::TempDir() + "spec_roundtrip.toml";
  spec.save(path);
  const CampaignSpec reloaded = CampaignSpec::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(spec == reloaded);

  const CampaignResult a = Session(spec).run();
  const CampaignResult b = Session(reloaded).run();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].covered_pdlc, b.history[i].covered_pdlc);
    EXPECT_EQ(a.history[i].coverage_points, b.history[i].coverage_points);
    EXPECT_EQ(a.history[i].cycles, b.history[i].cycles);
  }
  EXPECT_EQ(a.first_detection, b.first_detection);
  EXPECT_EQ(a.total_windows, b.total_windows);
  EXPECT_EQ(a.mispredicted_windows, b.mispredicted_windows);
}

TEST(CampaignSpecToml, LoadMissingFileFails) {
  EXPECT_NE(error_of([] { CampaignSpec::load("/nonexistent/x.toml"); })
                .find("cannot open"),
            std::string::npos);
}

TEST(CampaignSpecFields, KeysAreUniqueAndCoverEveryField) {
  const auto keys = CampaignSpec::keys();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]);
    }
  }
  // Every rendered field re-applies through set() — the contract the
  // TOML loader and the JSON spec echo both rely on.
  const CampaignSpec original = CampaignSpec::preset("full");
  CampaignSpec rebuilt;
  for (const SpecField& f : original.fields()) {
    rebuilt.set(f.key, f.value);
  }
  EXPECT_TRUE(original == rebuilt);
}

}  // namespace
}  // namespace specure::core
