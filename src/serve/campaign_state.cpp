#include "serve/campaign_state.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "serve/state_io.hpp"
#include "util/strings.hpp"

namespace specure::serve {

namespace {

constexpr char kMagic[8] = {'S', 'P', 'C', 'S', 'T', 'A', 'T', 'E'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

// ---- field encoders (layout is the format: bump kStateFormatVersion on
// any change) --------------------------------------------------------------

void write_program(ByteWriter& w, const riscv::Program& p) {
  w.u64(p.code.size());
  for (std::uint32_t word : p.code) w.u32(word);
  w.str(std::string_view(reinterpret_cast<const char*>(p.data.data()),
                         p.data.size()));
}

riscv::Program read_program(ByteReader& r, const char* what) {
  riscv::Program p;
  const std::uint64_t code = r.count(what, 4);
  p.code.reserve(code);
  for (std::uint64_t i = 0; i < code; ++i) p.code.push_back(r.u32(what));
  const std::string data = r.str(what);
  p.data.assign(data.begin(), data.end());
  return p;
}

void write_window(ByteWriter& w, const core::SpecWindow& win) {
  w.u64(win.start_cycle);
  w.u64(win.end_cycle);
  w.u64(win.pc);
  w.u32(win.inst);
  w.u8(win.mispredicted ? 1 : 0);
  w.u64(win.opener_insts.size());
  for (std::uint32_t inst : win.opener_insts) w.u32(inst);
}

core::SpecWindow read_window(ByteReader& r, const char* what) {
  core::SpecWindow win;
  win.start_cycle = r.u64(what);
  win.end_cycle = r.u64(what);
  win.pc = r.u64(what);
  win.inst = r.u32(what);
  win.mispredicted = r.u8(what) != 0;
  const std::uint64_t openers = r.count(what, 4);
  win.opener_insts.reserve(openers);
  for (std::uint64_t i = 0; i < openers; ++i)
    win.opener_insts.push_back(r.u32(what));
  return win;
}

void write_vuln(ByteWriter& w, const core::VulnReport& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  write_window(w, v.window);
  w.str(v.sink_signal);
  w.u64(v.before);
  w.u64(v.after);
  w.u64(v.root_causes.size());
  for (const core::RootCause& rc : v.root_causes) {
    w.str(rc.source_signal);
    w.u64(rc.path.size());
    for (const std::string& hop : rc.path) w.str(hop);
  }
  w.str(v.cwe);
  w.str(v.signature);
  write_program(w, v.program);
}

core::VulnReport read_vuln(ByteReader& r) {
  core::VulnReport v;
  v.kind = static_cast<core::VulnKind>(r.u8("finding kind"));
  v.window = read_window(r, "finding window");
  v.sink_signal = r.str("finding sink signal");
  v.before = r.u64("finding before value");
  v.after = r.u64("finding after value");
  const std::uint64_t causes = r.count("finding root causes", 16);
  v.root_causes.reserve(causes);
  for (std::uint64_t i = 0; i < causes; ++i) {
    core::RootCause rc;
    rc.source_signal = r.str("root cause source");
    const std::uint64_t hops = r.count("root cause path", 8);
    rc.path.reserve(hops);
    for (std::uint64_t h = 0; h < hops; ++h)
      rc.path.push_back(r.str("root cause path hop"));
    v.root_causes.push_back(std::move(rc));
  }
  v.cwe = r.str("finding cwe");
  v.signature = r.str("finding signature");
  v.program = read_program(r, "finding program");
  return v;
}

void write_fuzz_job(ByteWriter& w, const fuzz::FuzzJob& job) {
  w.u64(job.iteration);
  write_program(w, job.program);
  w.u64(job.rng_seed);
}

fuzz::FuzzJob read_fuzz_job(ByteReader& r) {
  fuzz::FuzzJob job;
  job.iteration = r.u64("in-flight job iteration");
  job.program = read_program(r, "in-flight job program");
  job.rng_seed = r.u64("in-flight job rng seed");
  return job;
}

void write_bitmask(ByteWriter& w, const std::vector<bool>& mask) {
  w.u64(mask.size());
  std::string packed((mask.size() + 7) / 8, '\0');
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) packed[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  w.str(packed);
}

std::vector<bool> read_bitmask(ByteReader& r, const char* what) {
  const std::uint64_t bits = r.u64(what);
  const std::string packed = r.str(what);
  if (packed.size() != (bits + 7) / 8) {
    throw StateError("campaign state is corrupted: " + std::string(what) +
                     " claims " + std::to_string(bits) + " bits but carries " +
                     std::to_string(packed.size()) + " bytes");
  }
  std::vector<bool> mask(bits);
  for (std::uint64_t i = 0; i < bits; ++i) {
    mask[i] = (static_cast<unsigned char>(packed[i / 8]) >> (i % 8)) & 1u;
  }
  return mask;
}

void write_frontier(ByteWriter& w, const core::CampaignFrontier& f) {
  w.u64(f.merged);
  w.u8(f.completed ? 1 : 0);

  // Fuzzer state.
  for (std::uint64_t word : f.fuzzer.rng_state) w.u64(word);
  w.u64(f.fuzzer.iteration);
  w.u64(f.fuzzer.corpus.size());
  for (const fuzz::CorpusEntry& e : f.fuzzer.corpus) {
    write_program(w, e.program);
    w.str(e.origin);
    w.f64(e.energy);
    w.u64(e.hits);
    w.u64(e.added_iteration);
  }
  w.u64(f.fuzzer.pending_seeds.size());
  for (const fuzz::Seed& s : f.fuzzer.pending_seeds) {
    w.str(s.name);
    write_program(w, s.program);
  }

  // In-flight window jobs.
  w.u64(f.in_flight.size());
  for (const fuzz::FuzzJob& job : f.in_flight) write_fuzz_job(w, job);

  // Merged result.
  w.u64(f.result.history.size());
  for (const core::IterationRecord& rec : f.result.history) {
    w.u64(rec.iteration);
    w.u64(rec.covered_pdlc);
    w.u64(rec.coverage_points);
    w.u64(rec.vulns_found);
    w.u64(rec.cycles);
  }
  w.u64(f.result.vulns.size());
  for (const core::VulnReport& v : f.result.vulns) write_vuln(w, v);
  w.u64(f.result.first_detection.size());
  for (const auto& [key, iter] : f.result.first_detection) {
    w.str(key);
    w.u64(iter);
  }
  w.u64(f.result.mst_sample.size());
  for (const core::SpecWindow& win : f.result.mst_sample)
    write_window(w, win);
  w.u64(f.result.total_windows);
  w.u64(f.result.mispredicted_windows);
  w.u64(f.result.pdlc_total);
  w.f64(f.result.seconds);

  // Coverage maps.
  write_bitmask(w, f.lp_covered);
  w.u64(f.coverage_points.size());
  for (const std::string& point : f.coverage_points) w.str(point);
  w.u64(f.toggle_bits);

  // Session counters.
  w.u64(f.last_gain_iteration);
  w.u64(f.last_progress);
  w.u64(f.batch_index);
  w.u64(f.merges_since_event);

  // Deferred waveforms.
  w.u64(f.pending_vcd.size());
  for (const core::PendingWaveform& p : f.pending_vcd) {
    write_program(w, p.program);
    w.u64(p.iteration);
    w.u64(p.vuln_begin);
    w.u64(p.vuln_end);
  }
  w.f64(f.prior_seconds);
}

core::CampaignFrontier read_frontier(ByteReader& r) {
  core::CampaignFrontier f;
  f.merged = r.u64("merged iteration count");
  f.completed = r.u8("completed flag") != 0;

  for (std::uint64_t& word : f.fuzzer.rng_state) word = r.u64("rng state");
  f.fuzzer.iteration = r.u64("fuzzer iteration cursor");
  const std::uint64_t corpus = r.count("corpus entries", 8 + 8 + 8 + 8 + 8);
  f.fuzzer.corpus.reserve(corpus);
  for (std::uint64_t i = 0; i < corpus; ++i) {
    fuzz::CorpusEntry e;
    e.program = read_program(r, "corpus program");
    e.origin = r.str("corpus origin");
    e.energy = r.f64("corpus energy");
    e.hits = r.u64("corpus hits");
    e.added_iteration = r.u64("corpus added_iteration");
    f.fuzzer.corpus.push_back(std::move(e));
  }
  const std::uint64_t seeds = r.count("pending seeds", 16);
  f.fuzzer.pending_seeds.reserve(seeds);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    fuzz::Seed s;
    s.name = r.str("seed name");
    s.program = read_program(r, "seed program");
    f.fuzzer.pending_seeds.push_back(std::move(s));
  }

  const std::uint64_t in_flight = r.count("in-flight jobs", 40);
  f.in_flight.reserve(in_flight);
  for (std::uint64_t i = 0; i < in_flight; ++i)
    f.in_flight.push_back(read_fuzz_job(r));

  const std::uint64_t history = r.count("iteration history", 40);
  f.result.history.reserve(history);
  for (std::uint64_t i = 0; i < history; ++i) {
    core::IterationRecord rec;
    rec.iteration = r.u64("history iteration");
    rec.covered_pdlc = r.u64("history covered_pdlc");
    rec.coverage_points = r.u64("history coverage_points");
    rec.vulns_found = r.u64("history vulns_found");
    rec.cycles = r.u64("history cycles");
    f.result.history.push_back(rec);
  }
  const std::uint64_t vulns = r.count("findings", 32);
  f.result.vulns.reserve(vulns);
  for (std::uint64_t i = 0; i < vulns; ++i)
    f.result.vulns.push_back(read_vuln(r));
  const std::uint64_t detections = r.count("first-detection entries", 16);
  for (std::uint64_t i = 0; i < detections; ++i) {
    std::string key = r.str("first-detection signature");
    const std::uint64_t iter = r.u64("first-detection iteration");
    f.result.first_detection.emplace(std::move(key), iter);
  }
  const std::uint64_t mst = r.count("mst sample rows", 29);
  f.result.mst_sample.reserve(mst);
  for (std::uint64_t i = 0; i < mst; ++i)
    f.result.mst_sample.push_back(read_window(r, "mst sample row"));
  f.result.total_windows = r.u64("total windows");
  f.result.mispredicted_windows = r.u64("mispredicted windows");
  f.result.pdlc_total = r.u64("pdlc total");
  f.result.seconds = r.f64("result seconds");

  f.lp_covered = read_bitmask(r, "lp coverage mask");
  const std::uint64_t points = r.count("coverage points", 8);
  f.coverage_points.reserve(points);
  for (std::uint64_t i = 0; i < points; ++i)
    f.coverage_points.push_back(r.str("coverage point"));
  f.toggle_bits = r.u64("toggle bits");

  f.last_gain_iteration = r.u64("last gain iteration");
  f.last_progress = r.u64("last progress iteration");
  f.batch_index = r.u64("batch index");
  f.merges_since_event = r.u64("merges since event");

  const std::uint64_t waveforms = r.count("pending waveforms", 40);
  f.pending_vcd.reserve(waveforms);
  for (std::uint64_t i = 0; i < waveforms; ++i) {
    core::PendingWaveform p;
    p.program = read_program(r, "pending waveform program");
    p.iteration = r.u64("pending waveform iteration");
    p.vuln_begin = r.u64("pending waveform vuln begin");
    p.vuln_end = r.u64("pending waveform vuln end");
    f.pending_vcd.push_back(std::move(p));
  }
  f.prior_seconds = r.f64("prior seconds");
  return f;
}

}  // namespace

std::string encode_state(const core::CampaignSpec& spec,
                         const core::CampaignFrontier& frontier) {
  ByteWriter payload;
  payload.str(spec.to_toml());
  write_frontier(payload, frontier);

  ByteWriter out;
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kStateFormatVersion);
  out.u64(payload.size());
  out.u64(fnv1a(payload.data().data(), payload.size()));
  out.bytes(payload.data().data(), payload.size());
  return out.take();
}

CampaignState decode_state(std::string_view bytes, const std::string& origin) {
  if (bytes.size() < kHeaderBytes) {
    throw StateError("campaign state '" + origin + "' is truncated: " +
                     std::to_string(bytes.size()) +
                     " bytes, the header alone needs " +
                     std::to_string(kHeaderBytes) +
                     " — the file was cut off mid-write; resume from an "
                     "intact state file or restart without --resume");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw StateError(
        "'" + origin +
        "' is not a specure campaign state file (bad magic); expected a "
        "file written by state_out or `specure serve`");
  }
  ByteReader header(bytes.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32("format version");
  if (version != kStateFormatVersion) {
    throw StateError(
        "campaign state '" + origin + "' is format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kStateFormatVersion) +
        " — resume it with the specure build that wrote it, or restart the "
        "campaign without --resume");
  }
  const std::uint64_t payload_len = header.u64("payload length");
  const std::uint64_t stored_sum = header.u64("payload checksum");
  const std::string_view payload =
      bytes.substr(kHeaderBytes);
  if (payload.size() != payload_len) {
    throw StateError(
        "campaign state '" + origin + "' is truncated or padded: header "
        "declares a " +
        std::to_string(payload_len) + "-byte payload but " +
        std::to_string(payload.size()) +
        " bytes follow — the file was cut off mid-write; resume from an "
        "intact state file or restart without --resume");
  }
  const std::uint64_t computed = fnv1a(payload.data(), payload.size());
  if (computed != stored_sum) {
    throw StateError("campaign state '" + origin +
                     "' is corrupted: payload checksum mismatch (stored 0x" +
                     util::hex(stored_sum) + ", computed 0x" +
                     util::hex(computed) +
                     ") — the file was damaged after it was written; resume "
                     "from an intact state file or restart without --resume");
  }

  ByteReader r(payload);
  CampaignState state;
  const std::string spec_toml = r.str("embedded spec");
  state.spec = core::CampaignSpec::from_toml_string(spec_toml);
  state.frontier = read_frontier(r);
  if (!r.at_end()) {
    throw StateError("campaign state '" + origin + "' has " +
                     std::to_string(r.remaining()) +
                     " unexpected trailing payload bytes — the file does not "
                     "match this build's format; refuse rather than guess");
  }
  return state;
}

void save_state_file(const std::string& path, const core::CampaignSpec& spec,
                     const core::CampaignFrontier& frontier) {
  const std::string bytes = encode_state(spec, frontier);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StateError("cannot write campaign state: failed to open '" + tmp +
                       "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw StateError("cannot write campaign state: short write to '" + tmp +
                       "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StateError("cannot write campaign state: rename '" + tmp +
                     "' -> '" + path + "' failed");
  }
}

CampaignState load_state_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StateError("cannot open campaign state file '" + path +
                     "': no such file or not readable");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return decode_state(buf.str(), path);
}

const std::vector<std::string>& result_neutral_keys() {
  // Every key here is documented (and tested) to never change a
  // CampaignResult — only wall-clock behaviour and side-output paths.
  static const std::vector<std::string> keys = {
      "jobs",    "pipeline",   "progress_interval", "vcd_out",
      "triage",  "triage_out", "state_out",         "state_interval",
      "metrics", "trace_out"};
  return keys;
}

core::CampaignSpec resume_spec(const CampaignState& state,
                               const core::CampaignSpec& requested) {
  const std::set<std::string> neutral(result_neutral_keys().begin(),
                                      result_neutral_keys().end());

  // Compare the result-affecting fields via the flat key table (the same
  // surface operator== uses), collecting every mismatch.
  const std::vector<core::SpecField> stored_fields = state.spec.fields();
  const std::vector<core::SpecField> requested_fields = requested.fields();
  std::string mismatches;
  for (std::size_t i = 0; i < stored_fields.size(); ++i) {
    const core::SpecField& s = stored_fields[i];
    const core::SpecField& q = requested_fields[i];
    if (neutral.count(s.key) != 0) continue;
    if (s.value != q.value) {
      mismatches += "\n  " + s.key + ": state file has " + s.value +
                    ", requested spec has " + q.value;
    }
  }
  if (!mismatches.empty()) {
    throw StateError(
        "cannot resume: the requested spec changes result-affecting fields, "
        "which would break the bit-identity contract —" +
        mismatches +
        "\nresume with a matching spec (wall-clock fields like jobs/"
        "pipeline/vcd_out may differ), or restart without --resume");
  }

  // Adopt the requested wall-clock fields onto the stored spec.
  core::CampaignSpec merged = state.spec;
  for (const core::SpecField& q : requested_fields) {
    if (neutral.count(q.key) != 0) merged.set(q.key, q.value);
  }
  return merged;
}

}  // namespace specure::serve
