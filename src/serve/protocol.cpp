#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "util/strings.hpp"

namespace specure::serve {

namespace {

// Full read/write over a stream socket (EINTR-safe).
bool read_exact(int fd, void* buf, std::size_t size, bool eof_ok) {
  auto* out = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw ProtocolError("connection closed mid-frame (" +
                          std::to_string(got) + " of " + std::to_string(size) +
                          " bytes read)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("socket read failed: ") +
                          std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_exact(int fd, const void* buf, std::size_t size) {
  const auto* in = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, in + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("socket write failed: ") +
                          std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool read_frame(int fd, std::string& payload) {
  unsigned char prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix), /*eof_ok=*/true)) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (len > kMaxFramePayload) {
    throw ProtocolError("frame length prefix " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxFramePayload) +
                        "-byte payload cap — rejecting before allocation");
  }
  payload.resize(len);
  if (len != 0) read_exact(fd, payload.data(), len, /*eof_ok=*/false);
  return true;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("refusing to send a " +
                        std::to_string(payload.size()) +
                        "-byte frame (cap is " +
                        std::to_string(kMaxFramePayload) + ")");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char prefix[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff)};
  write_exact(fd, prefix, sizeof(prefix));
  if (!payload.empty()) write_exact(fd, payload.data(), payload.size());
}

// ---- request validation -----------------------------------------------------

namespace {

struct VerbDef {
  const char* verb;
  std::vector<std::string> fields;    ///< accepted (beyond "verb")
  std::vector<std::string> required;  ///< must be present
};

const std::vector<VerbDef>& verb_table() {
  static const std::vector<VerbDef> table = {
      {"submit", {"spec"}, {"spec"}},
      {"status", {"id"}, {"id"}},
      {"metrics", {"id"}, {}},
      {"events", {"id", "from", "follow"}, {"id"}},
      {"pause", {"id"}, {"id"}},
      {"resume", {"id"}, {"id"}},
      {"cancel", {"id"}, {"id"}},
      {"list", {}, {}},
      {"shutdown", {}, {}},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& protocol_verbs() {
  static const std::vector<std::string> verbs = [] {
    std::vector<std::string> v;
    for (const VerbDef& def : verb_table()) v.push_back(def.verb);
    return v;
  }();
  return verbs;
}

Request parse_request(std::string_view frame) {
  using util::Json;
  const Json doc = util::parse_json(frame);
  if (doc.kind != Json::Kind::kObject) {
    throw ProtocolError("a request must be a JSON object, e.g. "
                        R"({"verb": "status", "id": "c0001"})");
  }
  const Json* verb = doc.find("verb");
  if (verb == nullptr || verb->kind != Json::Kind::kString) {
    throw ProtocolError(
        R"(request is missing the "verb" field (a string); known verbs: )" +
        util::join(protocol_verbs(), ", "));
  }

  const VerbDef* def = nullptr;
  for (const VerbDef& d : verb_table()) {
    if (verb->text == d.verb) {
      def = &d;
      break;
    }
  }
  if (def == nullptr) {
    std::string msg = "unknown verb '" + verb->text + "'";
    const std::string hint = util::closest_match(verb->text, protocol_verbs());
    if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
    msg += " (known verbs: " + util::join(protocol_verbs(), ", ") + ")";
    throw ProtocolError(msg);
  }

  // Reject unknown fields with the line they appear on (the TOML loader's
  // contract, carried over to the wire).
  for (std::size_t i = 0; i < doc.keys.size(); ++i) {
    const std::string& key = doc.keys[i];
    if (key == "verb") continue;
    bool known = false;
    for (const std::string& f : def->fields) {
      if (key == f) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string msg = "line " + std::to_string(doc.key_lines[i]) +
                        ": unknown field '" + key + "' for verb '" +
                        def->verb + "'";
      std::vector<std::string> candidates = def->fields;
      candidates.emplace_back("verb");
      const std::string hint = util::closest_match(key, candidates);
      if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
      throw ProtocolError(msg);
    }
  }
  for (const std::string& f : def->required) {
    if (doc.find(f) == nullptr) {
      throw ProtocolError("verb '" + std::string(def->verb) +
                          "' requires the field '" + f + "'");
    }
  }

  Request req;
  req.verb = verb->text;
  if (const Json* id = doc.find("id")) {
    if (id->kind != Json::Kind::kString) {
      throw ProtocolError("field 'id' must be a string campaign id");
    }
    req.id = id->text;
  }
  if (const Json* spec = doc.find("spec")) {
    if (spec->kind != Json::Kind::kString) {
      throw ProtocolError(
          "field 'spec' must be a string holding the campaign spec TOML");
    }
    req.spec_toml = spec->text;
  }
  if (const Json* from = doc.find("from")) {
    const std::optional<std::uint64_t> index = from->as_u64();
    if (!index) {
      throw ProtocolError("field 'from' must be a non-negative event index");
    }
    req.from = *index;
  }
  if (const Json* follow = doc.find("follow")) {
    if (follow->kind != Json::Kind::kBool) {
      throw ProtocolError("field 'follow' must be a boolean");
    }
    req.follow = follow->boolean;
  }
  return req;
}

// ---- client -----------------------------------------------------------------

Client::Client(const std::string& socket_path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ProtocolError(std::string("cannot create socket: ") +
                        std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError("socket path too long: '" + socket_path + "'");
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError("cannot connect to daemon socket '" + socket_path +
                        "': " + std::strerror(errno) +
                        " — is `specure serve` running?");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

util::Json Client::request(const std::string& payload) {
  write_frame(fd_, payload);
  std::string response;
  if (!read_frame(fd_, response)) {
    throw ProtocolError("daemon closed the connection without a response");
  }
  return util::parse_json(response);
}

void Client::send(const std::string& payload) { write_frame(fd_, payload); }

bool Client::next_raw(std::string& payload) { return read_frame(fd_, payload); }

}  // namespace specure::serve
