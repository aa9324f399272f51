// Serve-layer coverage: durable campaign state (round-trip bit-identity,
// kill-at-any-boundary resume equivalence, corruption/version-skew
// rejection), the wire protocol (framing limits, line-numbered field
// errors, did-you-mean verbs), and the daemon itself (two concurrent
// tenants bit-identical to solo runs, shutdown-mid-campaign recovery).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"
#include "serve/campaign_state.hpp"
#include "serve/campaign_store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/state_io.hpp"
#include "util/fs.hpp"

namespace specure::serve {
namespace {

core::CampaignSpec small_spec(const std::string& preset,
                              std::uint64_t iterations, std::uint64_t seed,
                              std::size_t jobs) {
  core::CampaignSpec spec = core::CampaignSpec::preset(preset);
  spec.rng_seed = seed;
  spec.batch_size = 8;
  spec.jobs = jobs;
  spec.budget.iterations = iterations;
  spec.progress_interval = 10;
  return spec;
}

/// The result as JSON with the wall-clock zeroed — byte comparison then
/// means bit-identity of everything deterministic.
std::string normalized_report(const core::CampaignResult& result) {
  core::CampaignResult copy = result;
  copy.seconds = 0;
  return core::json_report(copy, 64, nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

// ---- durable state: round trip + resume equivalence -----------------------

TEST(CampaignState, EncodeDecodeRoundTripIsBitIdentical) {
  const core::CampaignSpec spec = small_spec("default", 24, 7, 2);
  core::Session session(spec);
  std::vector<std::string> states;
  session.on_frontier([&](const core::CampaignFrontier& f) {
    states.push_back(encode_state(spec, f));
  });
  session.run();
  ASSERT_FALSE(states.empty());

  for (const std::string& bytes : states) {
    const CampaignState state = decode_state(bytes, "test");
    // Re-encoding the decoded state reproduces the input byte for byte:
    // nothing is lost, reordered or re-derived differently.
    EXPECT_EQ(encode_state(state.spec, state.frontier), bytes);
  }
}

TEST(CampaignState, SaveLoadFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "serve_roundtrip.state";
  const core::CampaignSpec spec = small_spec("default", 16, 3, 1);
  core::Session session(spec);
  std::string last;
  session.on_frontier([&](const core::CampaignFrontier& f) {
    save_state_file(path, spec, f);
    last = encode_state(spec, f);
  });
  session.run();
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(read_file(path), last);

  const CampaignState loaded = load_state_file(path);
  EXPECT_TRUE(loaded.frontier.completed);
  EXPECT_EQ(encode_state(loaded.spec, loaded.frontier), last);
}

/// The tentpole contract: a campaign killed at ANY state-write point and
/// resumed produces a final result bit-identical to the uninterrupted
/// run — at fixed seed, for any jobs, across presets.
TEST(CampaignState, ResumeFromEveryBoundaryMatchesUninterrupted) {
  struct Case {
    const char* preset;
    std::uint64_t seed;
    std::size_t jobs;
    std::size_t sample;  ///< resume every Nth captured boundary
  };
  const Case cases[] = {
      {"default", 7, 1, 2},
      {"default", 9, 4, 2},
      {"full", 7, 4, 4},
      {"full", 9, 1, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.preset) + " seed " + std::to_string(c.seed) +
                 " jobs " + std::to_string(c.jobs));
    const core::CampaignSpec spec =
        small_spec(c.preset, 20, c.seed, c.jobs);
    core::Session uninterrupted(spec);
    std::vector<std::string> states;
    uninterrupted.on_frontier([&](const core::CampaignFrontier& f) {
      if (!f.completed) states.push_back(encode_state(spec, f));
    });
    const std::string expected =
        normalized_report(uninterrupted.run());
    ASSERT_FALSE(states.empty());

    for (std::size_t i = 0; i < states.size(); i += c.sample) {
      CampaignState state = decode_state(states[i], "test");
      // Resume under the opposite worker count: jobs is result-neutral.
      core::CampaignSpec requested = state.spec;
      requested.jobs = c.jobs == 1 ? 4 : 1;
      core::Session resumed(resume_spec(state, requested));
      resumed.resume_from(std::move(state.frontier));
      EXPECT_EQ(normalized_report(resumed.run()), expected)
          << "resumed from boundary " << i << "/" << states.size();
    }
  }
}

TEST(CampaignState, CompletedStateResumesToStoredResultWithoutRerun) {
  const core::CampaignSpec spec = small_spec("default", 16, 5, 2);
  core::Session session(spec);
  std::string final_state;
  session.on_frontier([&](const core::CampaignFrontier& f) {
    if (f.completed) final_state = encode_state(spec, f);
  });
  const std::string expected = normalized_report(session.run());
  ASSERT_FALSE(final_state.empty());

  CampaignState state = decode_state(final_state, "test");
  core::Session resumed(resume_spec(state, state.spec));
  resumed.resume_from(std::move(state.frontier));
  // Must return the stored result — re-running would evaluate the stop
  // conditions one iteration late and could extend the campaign.
  const core::CampaignResult result = resumed.run();
  EXPECT_EQ(result.history.size(), 16u);
  EXPECT_EQ(normalized_report(result), expected);
}

// ---- durable state: rejection of bad files --------------------------------

class StateRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    const core::CampaignSpec spec = small_spec("default", 8, 2, 1);
    core::Session session(spec);
    session.on_frontier([&](const core::CampaignFrontier& f) {
      bytes_ = encode_state(spec, f);
    });
    session.run();
    ASSERT_FALSE(bytes_.empty());
    path_ = ::testing::TempDir() + "serve_reject.state";
  }

  std::string expect_load_error(const std::string& bytes) {
    write_file(path_, bytes);
    try {
      load_state_file(path_);
    } catch (const StateError& e) {
      return e.what();
    }
    ADD_FAILURE() << "load_state_file accepted a bad file";
    return "";
  }

  std::string bytes_;
  std::string path_;
};

TEST_F(StateRejection, TruncationAtEveryHeaderBoundaryIsNamed) {
  for (const std::size_t keep : {0u, 4u, 8u, 12u, 20u, 27u}) {
    const std::string message =
        expect_load_error(bytes_.substr(0, keep));
    EXPECT_NE(message.find(path_), std::string::npos) << message;
    EXPECT_NE(message.find("truncated"), std::string::npos) << message;
  }
  // Truncated payload (header intact): caught by the length check.
  const std::string message =
      expect_load_error(bytes_.substr(0, bytes_.size() - 5));
  EXPECT_NE(message.find("truncated"), std::string::npos) << message;
}

TEST_F(StateRejection, CorruptedPayloadFailsTheChecksum) {
  std::string corrupted = bytes_;
  corrupted[corrupted.size() / 2] ^= 0x40;
  const std::string message = expect_load_error(corrupted);
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  EXPECT_NE(message.find(path_), std::string::npos) << message;
}

TEST_F(StateRejection, TrailingBytesAreRejected) {
  const std::string message = expect_load_error(bytes_ + "junk");
  EXPECT_NE(message.find("padded"), std::string::npos) << message;
}

TEST_F(StateRejection, WrongMagicNamesTheFormat) {
  std::string wrong = bytes_;
  wrong[0] = 'X';
  const std::string message = expect_load_error(wrong);
  EXPECT_NE(message.find("magic"), std::string::npos) << message;
}

TEST_F(StateRejection, VersionSkewIsRefusedNotMisparsed) {
  std::string skewed = bytes_;
  skewed[8] = static_cast<char>(kStateFormatVersion + 1);
  const std::string message = expect_load_error(skewed);
  EXPECT_NE(message.find("version"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(kStateFormatVersion + 1)),
            std::string::npos)
      << message;
}

TEST_F(StateRejection, VersionOneStateIsRefused) {
  // Version 1 files carry per-job parent fields this build cannot read.
  std::string old = bytes_;
  old[8] = 1;
  const std::string message = expect_load_error(old);
  EXPECT_NE(message.find("format version 1"), std::string::npos) << message;
  EXPECT_NE(message.find("reads version 2"), std::string::npos) << message;
}

TEST_F(StateRejection, ResultAffectingSpecChangeIsListed) {
  const CampaignState state = decode_state(bytes_, "test");
  core::CampaignSpec requested = state.spec;
  requested.rng_seed = 99;
  requested.budget.iterations = 1000;
  try {
    resume_spec(state, requested);
    FAIL() << "resume_spec accepted a seed change";
  } catch (const StateError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("seed"), std::string::npos) << message;
    EXPECT_NE(message.find("iterations"), std::string::npos) << message;
  }
  // The documented result-neutral keys do pass.
  core::CampaignSpec neutral = state.spec;
  neutral.jobs = 16;
  neutral.state_out = "elsewhere.bin";
  EXPECT_NO_THROW(resume_spec(state, neutral));
  const std::vector<std::string>& keys = result_neutral_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "jobs"), keys.end());
}

// ---- wire protocol --------------------------------------------------------

TEST(Protocol, UnknownVerbGetsDidYouMean) {
  try {
    parse_request("{\"verb\": \"submitt\"}");
    FAIL();
  } catch (const ProtocolError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("submitt"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'submit'"), std::string::npos)
        << message;
  }
}

TEST(Protocol, UnknownFieldIsRejectedWithItsLine) {
  try {
    parse_request("{\"verb\": \"status\",\n  \"idd\": \"c0001\"}");
    FAIL();
  } catch (const ProtocolError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("idd"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'id'"), std::string::npos) << message;
  }
}

TEST(Protocol, MissingRequiredFieldIsNamed) {
  try {
    parse_request("{\"verb\": \"submit\"}");
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("spec"), std::string::npos);
  }
}

TEST(Protocol, MalformedJsonReportsTheLine) {
  try {
    parse_json("{\"a\": 1,\n\"b\": }");
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Protocol, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t huge = kMaxFramePayload + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>(huge & 0xff),
      static_cast<unsigned char>((huge >> 8) & 0xff),
      static_cast<unsigned char>((huge >> 16) & 0xff),
      static_cast<unsigned char>((huge >> 24) & 0xff)};
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  std::string payload;
  EXPECT_THROW(read_frame(fds[1], payload), ProtocolError);
  ::close(fds[0]);
  ::close(fds[1]);

  EXPECT_THROW(write_frame(0, std::string(kMaxFramePayload + 1, 'x')),
               ProtocolError);
}

TEST(Protocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{\"verb\": \"list\"}");
  std::string payload;
  ASSERT_TRUE(read_frame(fds[1], payload));
  EXPECT_EQ(payload, "{\"verb\": \"list\"}");
  ::close(fds[0]);
  // Clean EOF after the peer closes between frames.
  EXPECT_FALSE(read_frame(fds[1], payload));
  ::close(fds[1]);
}

// ---- the daemon -----------------------------------------------------------

class ServeDaemon : public ::testing::Test {
 protected:
  /// Fresh store unless `keep_store` (the recovery test's restart).
  void start(const std::string& tag, bool keep_store = false) {
    root_ = ::testing::TempDir() + "serve_daemon_" + tag;
    socket_ = root_ + ".sock";
    if (!keep_store) std::filesystem::remove_all(root_);
    ServerOptions options;
    options.socket_path = socket_;
    options.store_root = root_;
    options.workers = 2;
    options.slice_iterations = 8;
    server_ = std::make_unique<Server>(options);
    thread_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_) server_->shutdown();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  void TearDown() override { stop(); }

  std::string submit(const core::CampaignSpec& spec) {
    Client client(socket_);
    const Json reply = client.request("{\"verb\": \"submit\", \"spec\": \"" +
                                      escape_json(spec.to_toml()) + "\"}");
    const Json* id = reply.find("id");
    EXPECT_NE(id, nullptr);
    return id != nullptr ? id->text : "";
  }

  std::string wait_done(const std::string& id, int timeout_ms = 60000) {
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      Client client(socket_);
      const Json reply = client.request("{\"verb\": \"status\", \"id\": \"" +
                                        id + "\"}");
      const Json* status = reply.find("status");
      if (status != nullptr &&
          (status->text == "done" || status->text == "failed")) {
        return status->text;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return "timeout";
  }

  std::string root_;
  std::string socket_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServeDaemon, TwoTenantsFinishBitIdenticalToSoloRuns) {
  start("two_tenants");
  const core::CampaignSpec spec_a = small_spec("default", 40, 5, 1);
  const core::CampaignSpec spec_b = small_spec("zenbleed", 40, 6, 1);
  const std::string id_a = submit(spec_a);
  const std::string id_b = submit(spec_b);
  ASSERT_EQ(id_a, "c0001");
  ASSERT_EQ(id_b, "c0002");
  EXPECT_EQ(wait_done(id_a), "done");
  EXPECT_EQ(wait_done(id_b), "done");

  core::Session solo_a(spec_a);
  core::Session solo_b(spec_b);
  const core::CampaignResult result_a = solo_a.run();
  const core::CampaignResult result_b = solo_b.run();

  // The stored JSON report carries live seconds; compare everything else
  // by re-parsing and normalizing both sides through the same renderer.
  for (const auto& [id, solo] :
       {std::pair<std::string, const core::CampaignResult*>{id_a, &result_a},
        {id_b, &result_b}}) {
    std::ifstream in(server_->store().report_json_path(id));
    ASSERT_TRUE(in) << id;
    core::ParsedReport parsed = core::parse_json_report(in);
    EXPECT_EQ(parsed.findings.size(), solo->vulns.size()) << id;
    for (std::size_t i = 0; i < parsed.findings.size(); ++i) {
      EXPECT_EQ(parsed.findings[i].signature,
                core::dedup_key(solo->vulns[i]))
          << id;
    }
  }
  // Byte-level check on the text reports, wall-clock lines excluded.
  const auto meaningful_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.find("seconds") != std::string::npos ||
          line.find("iterations/sec") != std::string::npos) {
        continue;
      }
      lines.push_back(line);
    }
    return lines;
  };
  const std::pair<std::string, const core::CampaignResult*> tenants[] = {
      {id_a, &result_a}, {id_b, &result_b}};
  const core::CampaignSpec* specs[] = {&spec_a, &spec_b};
  for (std::size_t t = 0; t < 2; ++t) {
    const std::string& id = tenants[t].first;
    std::ostringstream fresh_os;
    core::write_text_report(fresh_os, *tenants[t].second, specs[t]);
    EXPECT_EQ(
        meaningful_lines(read_file(server_->store().report_text_path(id))),
        meaningful_lines(fresh_os.str()))
        << id;
  }
  // The event log is deterministic and ends at the final iteration.
  const std::string events =
      read_file(server_->store().events_path(id_a));
  EXPECT_NE(events.find("\"iteration\": 40"), std::string::npos);
}

TEST_F(ServeDaemon, ShutdownMidCampaignRecoversAndMatchesSolo) {
  start("recovery");
  const core::CampaignSpec spec = small_spec("default", 400, 7, 1);
  const std::string id = submit(spec);

  // Let it make some progress, then stop the daemon mid-campaign.
  for (int waited = 0; waited < 30000; waited += 10) {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"status\", \"id\": \"" + id + "\"}");
    const Json* iters = reply.find("iterations");
    if (iters != nullptr && iters->number >= 8) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop();

  // The durable state must exist and point mid-campaign.
  const CampaignState state = load_state_file(root_ + "/" + id + "/state.bin");
  ASSERT_FALSE(state.frontier.completed);
  ASSERT_GT(state.frontier.merged, 0u);
  ASSERT_LT(state.frontier.merged, 400u);

  // A new daemon over the same store resumes and finishes the campaign.
  start("recovery", /*keep_store=*/true);
  EXPECT_EQ(wait_done(id), "done");

  core::Session solo(spec);
  const core::CampaignResult expected = solo.run();
  std::ifstream in(server_->store().report_json_path(id));
  ASSERT_TRUE(in);
  core::ParsedReport parsed = core::parse_json_report(in);
  EXPECT_EQ(parsed.findings.size(), expected.vulns.size());

  // Event log: one contiguous deterministic stream — the recovery
  // truncation plus re-emission must leave no duplicate and no gap.
  std::ifstream events(server_->store().events_path(id));
  std::string line;
  std::uint64_t last_progress = 0;
  std::size_t progress_events = 0;
  while (std::getline(events, line)) {
    const Json parsed_line = parse_json(line);
    const Json* event = parsed_line.find("event");
    const Json* iteration = parsed_line.find("iteration");
    ASSERT_NE(event, nullptr);
    ASSERT_NE(iteration, nullptr);
    if (event->text == "progress") {
      const auto iter = static_cast<std::uint64_t>(iteration->number);
      EXPECT_EQ(iter, last_progress + 10) << "gap or duplicate at " << iter;
      last_progress = iter;
      ++progress_events;
    }
  }
  EXPECT_EQ(progress_events, 40u);  // 400 iterations / progress_interval 10
}

TEST_F(ServeDaemon, MalformedFramesGetErrorsAndTheDaemonStaysUp) {
  start("malformed");
  {
    Client client(socket_);
    const Json reply = client.request("{\"verb\": \"submitt\"}");
    const Json* error = reply.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->text.find("did you mean 'submit'"), std::string::npos);
  }
  {
    Client client(socket_);
    const Json reply = client.request("this is not json");
    ASSERT_NE(reply.find("error"), nullptr);
  }
  {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"status\", \"id\": \"c9999\"}");
    const Json* error = reply.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->text.find("c9999"), std::string::npos);
  }
  // After all of that the daemon still serves.
  Client client(socket_);
  const Json reply = client.request("{\"verb\": \"list\"}");
  EXPECT_NE(reply.find("campaigns"), nullptr);
}

TEST_F(ServeDaemon, PauseHaltsProgressAndResumeCompletes) {
  start("pause");
  const core::CampaignSpec spec = small_spec("default", 300, 3, 1);
  const std::string id = submit(spec);
  {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"pause\", \"id\": \"" + id + "\"}");
    ASSERT_EQ(reply.find("error"), nullptr);
  }
  // Progress must stop within a slice.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::uint64_t frozen = 0;
  {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"status\", \"id\": \"" + id + "\"}");
    frozen = static_cast<std::uint64_t>(reply.find("iterations")->number);
    EXPECT_EQ(reply.find("status")->text, "paused");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"status\", \"id\": \"" + id + "\"}");
    EXPECT_EQ(static_cast<std::uint64_t>(reply.find("iterations")->number),
              frozen);
  }
  {
    Client client(socket_);
    const Json reply =
        client.request("{\"verb\": \"resume\", \"id\": \"" + id + "\"}");
    ASSERT_EQ(reply.find("error"), nullptr);
  }
  EXPECT_EQ(wait_done(id), "done");
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// VmSize of this process in kB (/proc/self/status).
std::uint64_t vm_size_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

TEST_F(ServeDaemon, FinishedConnectionHandlersAreReaped) {
  start("reap");
  const auto scrape = [&] {
    Client client(socket_);
    const Json reply = client.request("{\"verb\": \"metrics\"}");
    EXPECT_NE(reply.find("metrics"), nullptr);
  };
  scrape();  // the accept loop and the runner are up
  const std::size_t threads = thread_count();
  const std::uint64_t vm_kb = vm_size_kb();
  for (int i = 0; i < 300; ++i) scrape();
  EXPECT_LE(thread_count(), threads + 2);
  // A finished handler that is never joined leaves no task behind but
  // keeps its stack mapped (8 MiB each at the usual stack limit), so an
  // accept loop that never reaps grows the address space by gigabytes.
  EXPECT_LT(vm_size_kb(), vm_kb + 150 * 1024);
}

}  // namespace
}  // namespace specure::serve
