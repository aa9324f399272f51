// Golden results: digests of what the simulator and whole campaigns
// produce, pinned across commits.
//
// Every other determinism test compares two runs of the same build, so an
// edit that changes results the same way for every `jobs` value passes
// them all. These constants were recorded from an earlier build, so a
// result change of any kind fails here.
//
// Each result is pinned twice. The ceiling-only run
// (CoreConfig::quiet_cycles = 0, the differential oracle) must still
// reproduce the constants recorded before runs could end quiescent; the
// default config has its own constants, recorded when that rule landed.
//
// Update the constants only in a change that declares a result change,
// and give the reason in CHANGES.md. A failure prints the digest the
// build produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/session.hpp"
#include "fuzz/corpus.hpp"
#include "sim/core.hpp"

namespace specure {
namespace {

/// FNV-1a over 64-bit words and length-prefixed strings.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::string_view s) {
    add(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const riscv::Program& p) {
    add(p.code.size());
    for (const std::uint32_t word : p.code) add(word);
    add(std::string_view(reinterpret_cast<const char*>(p.data.data()),
                         p.data.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_run(Digest& d, const sim::RunResult& res) {
  d.add(res.cycles);
  d.add(res.instructions_committed);
  d.add(res.halted_clean ? 1 : 0);
  d.add(res.commits.size());
  for (const sim::CommitRecord& c : res.commits) {
    d.add(c.cycle);
    d.add(c.pc);
    d.add(c.inst);
    d.add(c.writes_rd ? c.rd : 0xffu);
    d.add(c.writes_csr ? c.csr : 0xffffu);
    d.add(c.is_store ? c.store_addr : ~0ULL);
  }
  d.add(res.trace.size());
  for (std::size_t t = 0; t < res.trace.size(); ++t) {
    d.add(res.trace.cycle_at(t));
    for (std::size_t e = res.trace.tick_begin(t); e < res.trace.tick_end(t);
         ++e) {
      d.add(res.trace.event_id(e));
      d.add(res.trace.event_value(e));
    }
  }
  d.add(res.coverage.point_count());
  d.add(res.coverage.toggle_bits());
  d.add(std::string_view(reinterpret_cast<const char*>(res.final_data.data()),
                         res.final_data.size()));
}

/// The first 200 programs of the seed-1 fuzzer stream, with every fifth
/// fed back so mutations of a growing corpus are covered too.
std::uint64_t simulator_digest(const sim::CoreConfig& cfg) {
  sim::Simulator sim(cfg);
  fuzz::Fuzzer fuzzer(fuzz::FuzzerOptions{}, 1);
  sim::RunResult res(&sim.signal_db());
  Digest d;
  for (int i = 1; i <= 200; ++i) {
    const riscv::Program program = fuzzer.next();
    sim.run(program, res);
    add_run(d, res);
    if (i % 5 == 0) fuzzer.report_interesting(program);
  }
  return d.value();
}

std::uint64_t campaign_digest(const core::CampaignResult& r) {
  Digest d;
  d.add(r.history.size());
  for (const core::IterationRecord& rec : r.history) {
    d.add(rec.iteration);
    d.add(rec.covered_pdlc);
    d.add(rec.coverage_points);
    d.add(rec.vulns_found);
    d.add(rec.cycles);
  }
  d.add(r.vulns.size());
  for (const core::VulnReport& v : r.vulns) {
    d.add(core::dedup_key(v));
    d.add(v.sink_signal);
    d.add(v.before);
    d.add(v.after);
    d.add(v.window.start_cycle);
    d.add(v.window.end_cycle);
    d.add(v.program);
  }
  d.add(r.first_detection.size());
  for (const auto& [key, iteration] : r.first_detection) {
    d.add(key);
    d.add(iteration);
  }
  d.add(r.mst_sample.size());
  for (const core::SpecWindow& w : r.mst_sample) {
    d.add(w.start_cycle);
    d.add(w.end_cycle);
    d.add(w.pc);
    d.add(w.inst);
    d.add(w.mispredicted ? 1 : 0);
    d.add(w.opener_insts.size());
    for (const std::uint32_t inst : w.opener_insts) d.add(inst);
  }
  d.add(r.total_windows);
  d.add(r.mispredicted_windows);
  d.add(r.pdlc_total);
  return d.value();
}

struct SimulatorGolden {
  unsigned rob_entries;
  bool ceiling_only;
  std::uint64_t digest;
};

TEST(Golden, SimulatorDigest) {
  const SimulatorGolden cases[] = {
      {16, true, 0x172e287cd8db86bfULL},
      {8, true, 0x77680f515f938c37ULL},
      {16, false, 0xd163672d9d8ae9a0ULL},
      {8, false, 0xbd0f114e84d0622cULL},
  };
  for (const SimulatorGolden& c : cases) {
    sim::CoreConfig cfg;
    cfg.rob_entries = c.rob_entries;
    if (c.ceiling_only) cfg.quiet_cycles = 0;
    const std::uint64_t digest = simulator_digest(cfg);
    EXPECT_EQ(digest, c.digest)
        << std::hex << "rob_entries=" << std::dec << c.rob_entries
        << (c.ceiling_only ? " ceiling-only" : "") << " digest 0x"
        << std::hex << digest;
  }
}

struct CampaignGolden {
  const char* preset;
  std::uint64_t seed;
  bool ceiling_only;
  std::size_t lp;
  std::size_t points;
  std::size_t findings;
  std::uint64_t digest;
};

TEST(Golden, CampaignDigest) {
  const CampaignGolden cases[] = {
      {"default", 7, true, 703, 18, 0, 0xed6f87437f8fe198ULL},
      {"codecov", 7, true, 671, 18, 0, 0xddc0bb4bdf37e343ULL},
      {"full", 9, true, 884, 17, 3, 0x1a83fa9cbdeb3459ULL},
      {"default", 7, false, 703, 18, 0, 0xa0ebe48c16192e1dULL},
      {"codecov", 7, false, 671, 18, 0, 0xe669f7906f293b30ULL},
      {"full", 9, false, 884, 17, 3, 0x7be60b1c989088a0ULL},
  };
  for (const CampaignGolden& c : cases) {
    SCOPED_TRACE(std::string(c.preset) + "/" + std::to_string(c.seed) +
                 (c.ceiling_only ? " ceiling-only" : ""));
    core::CampaignSpec spec = core::CampaignSpec::preset(c.preset);
    spec.rng_seed = c.seed;
    spec.budget.iterations = 400;
    spec.jobs = 1;
    if (c.ceiling_only) spec.core.quiet_cycles = 0;
    const core::CampaignResult r = core::Session(spec).run();
    ASSERT_EQ(r.history.size(), 400u);
    EXPECT_EQ(r.history.back().covered_pdlc, c.lp);
    EXPECT_EQ(r.history.back().coverage_points, c.points);
    EXPECT_EQ(r.vulns.size(), c.findings);
    const std::uint64_t digest = campaign_digest(r);
    EXPECT_EQ(digest, c.digest) << std::hex << "digest 0x" << digest;
  }
}

}  // namespace
}  // namespace specure
