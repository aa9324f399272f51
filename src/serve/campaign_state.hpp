// Durable campaign state — the on-disk resume frontier.
//
// A state file is the whole deterministic future of a paused campaign:
// the embedded spec, the fuzzer state (RNG, iteration cursor, corpus,
// pending seeds), the in-flight window jobs, the merged CampaignResult
// (history, deduplicated findings, first-detection/signature set, MST
// sample), both coverage maps, and the session counters. A campaign
// killed at any merge boundary and resumed from its last state file
// produces a final CampaignResult bit-identical to the uninterrupted
// run at fixed seed, for any --jobs and either executor.
//
// File layout (all little-endian):
//   8  bytes  magic  "SPCSTATE"
//   4  bytes  format version (kStateFormatVersion)
//   8  bytes  payload length
//   8  bytes  FNV-1a checksum of the payload
//   N  bytes  payload (spec TOML first, then the frontier)
//
// Writes are atomic (temp file + rename), so a crash mid-write leaves
// the previous state intact; a partial temp file never has the final
// name. Loads verify magic, version, length and checksum before any
// field decode, and every decode failure names the field and byte
// offset (see state_io.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/campaign_spec.hpp"
#include "core/session.hpp"

namespace specure::serve {

/// Bump on any payload layout change. Old files are refused with a
/// version-skew message, never misparsed. Version 2 dropped the in-flight
/// jobs' mutation-parent fields.
constexpr std::uint32_t kStateFormatVersion = 2;

struct CampaignState {
  core::CampaignSpec spec;          ///< the spec the campaign ran under
  core::CampaignFrontier frontier;  ///< resume point (core/session.hpp)
};

/// Serialize spec + frontier to the state-file byte format (header
/// included).
std::string encode_state(const core::CampaignSpec& spec,
                         const core::CampaignFrontier& frontier);

/// Decode a state image. `origin` names the source (file path) in error
/// messages. Throws StateError on bad magic, version skew, truncation or
/// checksum mismatch; throws core::SpecError if the embedded spec fails
/// to parse (a corruption the checksum would normally catch first).
CampaignState decode_state(std::string_view bytes, const std::string& origin);

/// Write atomically: serialize to `path` + ".tmp", then rename over
/// `path`. Throws StateError on I/O failure.
void save_state_file(const std::string& path, const core::CampaignSpec& spec,
                     const core::CampaignFrontier& frontier);

/// Read + decode a state file. Throws StateError with the path in every
/// message.
CampaignState load_state_file(const std::string& path);

/// Build the spec a resumed campaign runs under: the stored spec with
/// the *result-neutral* fields (jobs, pipeline, intervals, output
/// paths) adopted from `requested`. Any difference in
/// a result-affecting field (seed, budgets, core config, fuzzer options,
/// detectors, ...) throws StateError listing every mismatched key —
/// resuming under a spec that changes the result would silently break
/// the bit-identity contract.
core::CampaignSpec resume_spec(const CampaignState& state,
                               const core::CampaignSpec& requested);

/// The result-neutral spec keys resume_spec() lets differ (exported for
/// the tests and the docs).
const std::vector<std::string>& result_neutral_keys();

}  // namespace specure::serve
