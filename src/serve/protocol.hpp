// The serve wire protocol: length-prefixed JSON frames over a Unix-domain
// stream socket.
//
// Frame layout: a 4-byte little-endian payload length, then exactly that
// many bytes of UTF-8 JSON (one request or response object per frame —
// JSON-lines semantics with an explicit length so the reader never has
// to scan for delimiters inside string escapes). Payloads are capped at
// kMaxFramePayload; an oversized prefix is rejected *before* any
// allocation, so a malformed client cannot balloon the daemon.
//
// Requests are flat JSON objects: {"verb": "...", ...}. The verb table
// below defines the accepted fields per verb; unknown verbs get a
// did-you-mean hint (util::closest_match, same policy as the CLI), and
// unknown fields are rejected with the line number where they appear —
// the same contract as the TOML spec loader.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace specure::serve {

/// Hard cap on one frame's payload (1 MiB — a full campaign spec TOML is
/// under 4 KiB; events and status responses are far smaller).
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Thrown for every protocol-layer failure: malformed frame, unknown
/// verb/field, missing required field. Malformed JSON throws the codec's
/// util::JsonError instead. The daemon turns both into error responses
/// and keeps the connection's peer state intact — a bad frame never
/// takes the server down.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- framing over a connected socket fd ---------------------------------

/// Read one frame. Returns false on clean EOF (peer closed between
/// frames); throws ProtocolError on an oversized length prefix or a
/// connection cut mid-frame.
bool read_frame(int fd, std::string& payload);

/// Write one frame (length prefix + payload). Throws ProtocolError if
/// the payload exceeds kMaxFramePayload or the write fails.
void write_frame(int fd, std::string_view payload);

// specbench/served.cpp still names the codec through this namespace;
// these go once it names util:: directly.
using util::Json;
using util::escape_json;

// ---- requests -------------------------------------------------------------

/// One client request, decoded and field-validated.
struct Request {
  std::string verb;
  std::string id;         ///< campaign id (every verb except submit/list/shutdown)
  std::string spec_toml;  ///< submit: the CampaignSpec TOML text
  std::uint64_t from = 0; ///< events: first event index to stream
  bool follow = true;     ///< events: keep streaming until done
};

/// The verbs the daemon accepts, in protocol order (exported for the
/// CLI's did-you-mean hints and the docs).
const std::vector<std::string>& protocol_verbs();

/// Decode and validate one request frame: parse the JSON, check the verb
/// (did-you-mean on unknown), check every field against the verb's
/// accepted set (line-numbered rejection, did-you-mean), check required
/// fields are present and correctly typed. Throws util::JsonError on
/// malformed JSON, ProtocolError on a well-formed but invalid request.
Request parse_request(std::string_view frame);

// ---- client convenience ---------------------------------------------------

/// A blocking Unix-domain socket client speaking the frame protocol
/// (used by the specure CLI subcommands, the tests and the bench).
class Client {
 public:
  /// Connect, or throw ProtocolError naming the socket path.
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request frame and read one response frame.
  util::Json request(const std::string& payload);
  /// Send one request frame without waiting for a response.
  void send(const std::string& payload);
  /// Read the next frame without parsing (the CLI's `events` relay just
  /// reprints the payload). Returns false on clean EOF.
  bool next_raw(std::string& payload);

 private:
  int fd_ = -1;
};

}  // namespace specure::serve
