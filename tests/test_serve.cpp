// The online decision service: serve frame codecs + frame_type_name,
// Hello validation with the serve schema, DecisionEngine propensity math
// and determinism, and the end-to-end reactor contract — the same request
// stream served over 1 vs 4 connections yields identical (action,
// propensity) per decision_id and a byte-identical event log (pinned by a
// golden FNV-1a hash).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "serve/key_counters.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "wire/serve_messages.hpp"

namespace fs = std::filesystem;

namespace ncb::serve {
namespace {

using wire::MsgType;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_serve_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

Graph ring_graph(std::size_t k) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < k; ++i) {
    edges.emplace_back(static_cast<ArmId>(i), static_cast<ArmId>((i + 1) % k));
  }
  return Graph(k, edges);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ------------------------------------------------------------- codecs ---

TEST(ServeCodec, DecideRequestRoundTrips) {
  wire::DecideRequestMsg msg;
  msg.request_id = 0xfeedfacecafef00dULL;
  msg.slot = 42;
  msg.user_key = "user-key with spaces \x01";
  const wire::DecideRequestMsg back =
      wire::decode_decide_request(wire::encode_decide_request(msg));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.slot, msg.slot);
  EXPECT_EQ(back.user_key, msg.user_key);

  wire::DecideRequestMsg empty_key;
  EXPECT_EQ(wire::decode_decide_request(wire::encode_decide_request(empty_key))
                .user_key,
            "");
}

TEST(ServeCodec, DecideReplyRoundTripsExactDouble) {
  wire::DecideReplyMsg msg;
  msg.request_id = 7;
  msg.slot = 9;
  msg.decision_id = 1234567;
  msg.action = 4095;
  msg.propensity = 0.1 + 0.2;  // a value with an inexact decimal expansion
  const wire::DecideReplyMsg back =
      wire::decode_decide_reply(wire::encode_decide_reply(msg));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.slot, msg.slot);
  EXPECT_EQ(back.decision_id, msg.decision_id);
  EXPECT_EQ(back.action, msg.action);
  EXPECT_EQ(back.propensity, msg.propensity);  // bit-exact, not approximate
}

TEST(ServeCodec, FeedbackRoundTrips) {
  wire::FeedbackMsg msg;
  msg.decision_id = 99;
  msg.reward = -1.5;
  const wire::FeedbackMsg back =
      wire::decode_feedback(wire::encode_feedback(msg));
  EXPECT_EQ(back.decision_id, msg.decision_id);
  EXPECT_EQ(back.reward, msg.reward);
}

TEST(ServeCodec, TruncatedAndOversizedPayloadsThrow) {
  wire::DecideRequestMsg msg;
  msg.user_key = "k";
  std::string bytes = wire::encode_decide_request(msg);
  bytes.pop_back();
  EXPECT_THROW((void)wire::decode_decide_request(bytes),
               std::invalid_argument);
  bytes = wire::encode_decide_reply({});
  bytes.push_back('\0');  // trailing byte: finish() must reject
  EXPECT_THROW((void)wire::decode_decide_reply(bytes), std::invalid_argument);
}

TEST(ServeProtocol, FrameTypeNames) {
  EXPECT_STREQ(wire::frame_type_name(MsgType::kHello), "Hello");
  EXPECT_STREQ(wire::frame_type_name(MsgType::kDecideRequest),
               "DecideRequest");
  EXPECT_STREQ(wire::frame_type_name(MsgType::kDecideReply), "DecideReply");
  EXPECT_STREQ(wire::frame_type_name(MsgType::kFeedback), "Feedback");
  EXPECT_STREQ(wire::frame_type_name(static_cast<MsgType>(42)), "unknown");
  EXPECT_EQ(wire::frame_type_label(8), "DecideReply (8)");
  EXPECT_EQ(wire::frame_type_label(42), "unknown (42)");
}

TEST(ServeProtocol, ValidateHelloChecksServeSchema) {
  wire::HelloMsg hello;
  hello.schema = wire::kServeWireSchema;
  EXPECT_FALSE(wire::validate_hello(hello, wire::kServeWireSchema));

  wire::HelloMsg wrong_schema = hello;
  wrong_schema.schema = wire::kServeWireSchema + 7;
  EXPECT_TRUE(wire::validate_hello(wrong_schema, wire::kServeWireSchema));

  wire::HelloMsg wrong_magic = hello;
  wrong_magic.magic = 0x12345678;
  EXPECT_TRUE(wire::validate_hello(wrong_magic, wire::kServeWireSchema));

  wire::HelloMsg wrong_version = hello;
  wrong_version.protocol_version = wire::kProtocolVersion + 1;
  EXPECT_TRUE(wire::validate_hello(wrong_version, wire::kServeWireSchema));
}

// ------------------------------------------------------------- engine ---

// The flat per-key counters against a node map over enough keys to grow
// every segment several times, with hash 0 and keys that differ only in
// their top bits among them.
TEST(KeyCounters, CountLikeAMapAcrossSegmentGrowth) {
  KeyCounters counters;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Xoshiro256 rng(31);
  std::vector<std::uint64_t> keys{0, 1ULL << 63, (1ULL << 63) | 1, 1};
  for (int i = 0; i < 60000; ++i) keys.push_back(rng());
  for (int i = 0; i < 300000; ++i) {
    // Mostly recent keys, so counts grow well past 1.
    const std::uint64_t key =
        i < 4 ? keys[static_cast<std::size_t>(i)]
              : keys[rng.uniform_int(keys.size())];
    ASSERT_EQ(counters.next(key), reference[key]++) << "request " << i;
  }
  for (const auto& [key, count] : reference) {
    ASSERT_EQ(counters.next(key), count);
  }
}

TEST(DecisionEngine, RejectsBadConfiguration) {
  EngineOptions options;
  EXPECT_THROW(DecisionEngine(Graph(0), options), std::invalid_argument);
  options.epsilon = 1.5;
  EXPECT_THROW(DecisionEngine(ring_graph(4), options), std::invalid_argument);
  options.epsilon = 0.1;
  options.policy_spec = "no-such-policy";
  EXPECT_THROW(DecisionEngine(ring_graph(4), options), std::invalid_argument);
}

TEST(DecisionEngine, DecisionIdsCountUpAndSlotIsEchoed) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  DecisionEngine engine(ring_graph(4), options);
  EXPECT_EQ(engine.num_arms(), 4u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const Decision d = engine.decide("k", /*slot=*/100 + i);
    EXPECT_EQ(d.decision_id, i);
    EXPECT_EQ(d.slot, 100 + i);
    EXPECT_TRUE(engine.report(d.decision_id, 0.5));
  }
  EXPECT_EQ(engine.decisions(), 5u);
  EXPECT_EQ(engine.feedbacks(), 5u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(DecisionEngine, PropensityIsEpsOverKPlusGreedyMass) {
  // With exploration probability e over K arms the logged propensity must
  // be exactly e/K (explored off-greedy) or 1-e+e/K (served the greedy
  // arm); anything else breaks inverse-propensity evaluation of the log.
  const double eps = 0.5;
  const std::size_t K = 8;
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = eps;
  options.seed = 12345;
  DecisionEngine engine(ring_graph(K), options);
  const double explore_p = eps / static_cast<double>(K);
  const double greedy_p = 1.0 - eps + explore_p;
  int explored = 0;
  int greedy = 0;
  for (int i = 0; i < 400; ++i) {
    const Decision d = engine.decide("user-" + std::to_string(i % 7));
    if (d.propensity == explore_p) {
      ++explored;
    } else if (d.propensity == greedy_p) {
      ++greedy;
    } else {
      FAIL() << "propensity " << d.propensity << " is neither " << explore_p
             << " nor " << greedy_p;
    }
    engine.report(d.decision_id, (i % 2) ? 1.0 : 0.0);
  }
  EXPECT_GT(explored, 0);
  EXPECT_GT(greedy, 0);
}

TEST(DecisionEngine, EpsilonZeroIsPureGreedyWithPropensityOne) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  DecisionEngine engine(ring_graph(4), options);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine.decide("k").propensity, 1.0);
  }
}

TEST(DecisionEngine, EpsilonOneIsUniformWithPropensityOneOverK) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 1.0;
  const std::size_t K = 16;
  DecisionEngine engine(ring_graph(K), options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(engine.decide("k").propensity, 1.0 / static_cast<double>(K));
  }
}

TEST(DecisionEngine, UnknownAndDuplicateFeedbackAreRejected) {
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.0;
  DecisionEngine engine(ring_graph(4), options);
  EXPECT_FALSE(engine.report(7, 1.0));  // never decided
  const Decision d = engine.decide("k");
  EXPECT_TRUE(engine.report(d.decision_id, 1.0));
  EXPECT_FALSE(engine.report(d.decision_id, 1.0));  // already joined
  EXPECT_EQ(engine.unknown_feedbacks(), 1u);   // the never-issued id
  EXPECT_EQ(engine.duplicate_feedbacks(), 1u); // the re-reported one
  EXPECT_EQ(engine.feedbacks(), 1u);
}

TEST(DecisionEngine, NonFiniteRewardsAreRejectedWithoutTrace) {
  // Two engines with logs see the same decide/report sequence; one also
  // gets NaN and ±inf rewards for some decisions before their finite one.
  // The rejected rewards must leave no mark: same decisions, same log
  // bytes, and the decision still joins its later finite reward.
  TempDir dir;
  obs::MetricsRegistry registry;
  const auto run = [&](const std::string& path, bool send_nonfinite) {
    std::vector<Decision> decisions;
    {
      EventLog log({path});
      EngineOptions options;
      options.policy_spec = "eps-greedy:eps=0";
      options.epsilon = 0.2;
      options.seed = 31;
      if (send_nonfinite) options.metrics = &registry;
      DecisionEngine engine(ring_graph(6), options, &log);
      for (int i = 0; i < 200; ++i) {
        const Decision d = engine.decide("user-" + std::to_string(i % 5));
        decisions.push_back(d);
        if (send_nonfinite && i % 7 == 3) {
          EXPECT_FALSE(engine.report(d.decision_id,
                                     std::numeric_limits<double>::quiet_NaN()));
          EXPECT_FALSE(engine.report(
              d.decision_id, std::numeric_limits<double>::infinity()));
          EXPECT_FALSE(engine.report(
              d.decision_id, -std::numeric_limits<double>::infinity()));
        }
        EXPECT_TRUE(engine.report(d.decision_id,
                                  static_cast<double>(d.action % 3) / 2.0));
      }
      EXPECT_EQ(engine.feedbacks(), 200u);
      EXPECT_EQ(engine.unknown_feedbacks(), 0u);
      EXPECT_EQ(engine.duplicate_feedbacks(), 0u);
      log.close();
    }
    return decisions;
  };
  const std::vector<Decision> clean = run(dir.file("clean.ncbl"), false);
  const std::vector<Decision> mixed = run(dir.file("mixed.ncbl"), true);
  ASSERT_EQ(clean.size(), mixed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i].decision_id, mixed[i].decision_id) << i;
    ASSERT_EQ(clean[i].action, mixed[i].action) << i;
    ASSERT_EQ(clean[i].propensity, mixed[i].propensity) << i;
  }
  EXPECT_EQ(read_bytes(dir.file("clean.ncbl")),
            read_bytes(dir.file("mixed.ncbl")));
#ifndef NCB_NO_METRICS
  // 29 decisions (i % 7 == 3 for i < 200), three rejected rewards each.
  EXPECT_EQ(registry.counter("serve.engine.nonfinite_rewards").value(), 87u);
  EXPECT_EQ(registry.counter("serve.engine.feedbacks").value(), 200u);
#endif
}

TEST(DecisionEngine, IdenticalCallSequencesAreBitIdentical) {
  // The determinism contract: decisions depend only on the seed and the
  // global decide/report order — two engines fed the same sequence agree
  // on every (action, propensity) pair.
  EngineOptions options;
  options.policy_spec = "eps-greedy:eps=0";
  options.epsilon = 0.3;
  options.seed = 777;
  DecisionEngine a(ring_graph(12), options);
  DecisionEngine b(ring_graph(12), options);
  for (int i = 0; i < 300; ++i) {
    const std::string key = "user-" + std::to_string(i % 9);
    const Decision da = a.decide(key, static_cast<std::uint64_t>(i));
    const Decision db = b.decide(key, static_cast<std::uint64_t>(i));
    ASSERT_EQ(da.decision_id, db.decision_id) << i;
    ASSERT_EQ(da.action, db.action) << i;
    ASSERT_EQ(da.propensity, db.propensity) << i;
    const double reward = static_cast<double>((i * 13) % 10) / 10.0;
    a.report(da.decision_id, reward);
    b.report(db.decision_id, reward);
  }
}

TEST(DecisionEngine, LogRecordsDecisionsAndFeedbackInCallOrder) {
  TempDir dir;
  const std::string path = dir.file("engine.ncbl");
  {
    EventLog log({path});
    EngineOptions options;
    options.policy_spec = "eps-greedy:eps=0";
    options.epsilon = 0.0;
    DecisionEngine engine(ring_graph(4), options, &log);
    const Decision d1 = engine.decide("alice");
    const Decision d2 = engine.decide("bob");
    engine.report(d1.decision_id, 1.0);
    engine.report(d2.decision_id, 0.0);
    engine.report(999, 1.0);  // unknown: must NOT be logged
    log.close();
  }
  const EventLogScan scan = read_event_log(path);
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, EventType::kDecision);
  EXPECT_EQ(scan.records[0].key, "alice");
  EXPECT_EQ(scan.records[1].key, "bob");
  EXPECT_EQ(scan.records[2].type, EventType::kFeedback);
  EXPECT_EQ(scan.records[2].decision_id, scan.records[0].decision_id);
  EXPECT_EQ(join_event_log(scan).joined, 2u);
}

// ------------------------------------------------------------- server ---

ssize_t send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    sent += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(sent);
}

int connect_retry(const std::string& path) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

/// Connects and completes the Hello/HelloAck handshake; returns the fd.
int handshake_client(const std::string& socket_path) {
  const int fd = connect_retry(socket_path);
  EXPECT_GE(fd, 0) << "server never started listening";
  if (fd < 0) return -1;
  wire::HelloMsg hello;
  hello.schema = wire::kServeWireSchema;
  wire::write_frame(fd, MsgType::kHello, wire::encode_hello(hello));
  const auto ack = wire::read_frame(fd);
  EXPECT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kHelloAck);
  wire::decode_hello_ack(ack->payload);
  return fd;
}

struct ServedDecision {
  std::uint64_t decision_id = 0;
  std::uint32_t action = 0;
  double propensity = 0.0;
};

/// One StatsRequest/StatsReply exchange on an already-handshaken fd.
wire::StatsReplyMsg poll_stats_once(int fd) {
  wire::write_frame(fd, MsgType::kStatsRequest, "");
  const auto frame = wire::read_frame(fd);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kStatsReply);
  return wire::decode_stats_reply(frame->payload);
}

/// Value of the named entry in a StatsReply; -1 when absent. Unused in
/// the NCB_NO_METRICS configuration (its tests compile out).
[[maybe_unused]] std::int64_t stat_value(const wire::StatsReplyMsg& reply,
                                         const std::string& name) {
  for (const obs::StatEntry& entry : reply.entries) {
    if (entry.name == name) return static_cast<std::int64_t>(entry.value);
  }
  return -1;
}

struct ScenarioResult {
  std::vector<ServedDecision> decisions;
  std::string log_bytes;
  ServerStats stats;
  wire::StatsReplyMsg final_stats;  ///< Only filled when polling.
  std::uint64_t background_polls = 0;
};

/// Serves `n` lockstep requests over `connections` round-robin client
/// sockets against a fresh engine + event log. The feedback for decision i
/// travels in the same send() as request i+1 (on whatever connection
/// carries i+1), so the server's processing order is globally sequential —
/// the engine sees an identical call sequence for ANY connection count.
ScenarioResult run_scenario(int connections, int n,
                            obs::MetricsRegistry* metrics = nullptr,
                            bool poll = false) {
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  const std::string log_path = dir.file("serve.ncbl");

  ScenarioResult result;
  {
    EventLog::Options log_options;
    log_options.path = log_path;
    log_options.metrics = metrics;
    EventLog log(log_options);
    EngineOptions engine_options;
    engine_options.policy_spec = "eps-greedy:eps=0";
    engine_options.epsilon = 0.25;
    engine_options.seed = 20170605;
    engine_options.metrics = metrics;
    DecisionEngine engine(ring_graph(16), engine_options, &log);

    std::atomic<bool> stop{false};
    ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.should_stop = [&stop] { return stop.load(); };
    server_options.metrics = metrics;
    std::thread server([&] { result.stats = run_server(engine, server_options); });

    // Concurrent poller: hammers StatsRequest on its own connection while
    // decide/feedback traffic flows — the "telemetry observes, never
    // perturbs" invariant under actual interleaving.
    std::atomic<bool> poller_stop{false};
    std::atomic<bool> poller_answered{false};
    std::thread poller;
    if (poll) {
      poller = std::thread([&] {
        const int fd = handshake_client(socket_path);
        if (fd < 0) return;
        while (!poller_stop.load()) {
          wire::write_frame(fd, MsgType::kStatsRequest, "");
          const auto frame = wire::read_frame(fd);
          if (!frame || frame->type != MsgType::kStatsReply) break;
          ++result.background_polls;
          poller_answered.store(true);
        }
        ::close(fd);
      });
      // Hold the traffic until the first StatsReply is back, so the polls
      // really interleave with it (otherwise the lockstep requests can all
      // finish before the poller's first round trip).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!poller_answered.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    std::vector<int> fds;
    try {
      for (int c = 0; c < connections; ++c) {
        const int fd = handshake_client(socket_path);
        if (fd < 0) throw std::runtime_error("handshake failed");
        fds.push_back(fd);
      }

      std::string pending_feedback;
      for (int i = 0; i < n; ++i) {
        const int fd = fds[static_cast<std::size_t>(i % connections)];
        wire::DecideRequestMsg request;
        request.request_id = static_cast<std::uint64_t>(i);
        request.slot = static_cast<std::uint64_t>(i);
        request.user_key = "user-" + std::to_string(i % 5);
        std::string out = std::move(pending_feedback);
        pending_feedback.clear();
        wire::append_frame(out, MsgType::kDecideRequest,
                           wire::encode_decide_request(request));
        if (send_all(fd, out) < 0) {
          throw std::runtime_error("send failed at request " +
                                   std::to_string(i));
        }

        const auto frame = wire::read_frame(fd);
        if (!frame || frame->type != MsgType::kDecideReply) {
          throw std::runtime_error("no DecideReply for request " +
                                   std::to_string(i));
        }
        const wire::DecideReplyMsg reply =
            wire::decode_decide_reply(frame->payload);
        EXPECT_EQ(reply.request_id, request.request_id) << i;
        EXPECT_EQ(reply.slot, request.slot) << i;
        result.decisions.push_back(
            {reply.decision_id, reply.action, reply.propensity});

        wire::FeedbackMsg feedback;
        feedback.decision_id = reply.decision_id;
        feedback.reward = static_cast<double>((i * 7) % 11) / 10.0;
        wire::append_frame(pending_feedback, MsgType::kFeedback,
                           wire::encode_feedback(feedback));
      }
      if (!pending_feedback.empty() &&
          send_all(fds.back(), pending_feedback) < 0) {
        throw std::runtime_error("final feedback send failed");
      }
      // Let the trailing feedback reach the engine before shutting down.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (engine.feedbacks() < static_cast<std::uint64_t>(n) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(engine.feedbacks(), static_cast<std::uint64_t>(n));
      // Quiesce the poller first so background_polls is final, then take
      // one synchronous poll: every feedback has landed, counters exact.
      poller_stop.store(true);
      if (poller.joinable()) poller.join();
      if (poll) result.final_stats = poll_stats_once(fds[0]);
    } catch (...) {
      poller_stop.store(true);
      if (poller.joinable()) poller.join();
      for (const int fd : fds) ::close(fd);
      stop.store(true);
      server.join();
      throw;
    }
    poller_stop.store(true);
    if (poller.joinable()) poller.join();
    for (const int fd : fds) ::close(fd);
    stop.store(true);
    server.join();
    log.close();
  }
  result.log_bytes = read_bytes(log_path);
  return result;
}

/// FNV-1a of the event-log bytes from run_scenario(·, 96). Pins the full
/// stack — engine seed derivation, per-key streams, policy tie-breaks, and
/// the record encodings. Regenerate (the failure message prints the actual
/// value) only for a deliberate wire/log format change.
constexpr std::uint64_t kGoldenLogHash = 0xcd343417a48c86c6ULL;

TEST(ServeServer, ConnectionCountDoesNotChangeDecisionsOrLog) {
  const int kRequests = 96;
  ScenarioResult one = run_scenario(1, kRequests);
  ScenarioResult four = run_scenario(4, kRequests);

  ASSERT_EQ(one.decisions.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(four.decisions.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(one.decisions[idx].decision_id, four.decisions[idx].decision_id)
        << i;
    ASSERT_EQ(one.decisions[idx].action, four.decisions[idx].action) << i;
    ASSERT_EQ(one.decisions[idx].propensity, four.decisions[idx].propensity)
        << i;
  }
  EXPECT_EQ(one.log_bytes, four.log_bytes);
  EXPECT_EQ(fnv1a(one.log_bytes), kGoldenLogHash)
      << "actual hash 0x" << std::hex << fnv1a(one.log_bytes);

  EXPECT_EQ(one.stats.connections_accepted, 1u);
  EXPECT_EQ(four.stats.connections_accepted, 4u);
  EXPECT_EQ(one.stats.decide_requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(one.stats.feedback_frames, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(one.stats.protocol_errors, 0u);

  // The log is the canonical D1 F1 D2 F2 ... interleaving.
  TempDir dir;
  const std::string copy = dir.file("copy.ncbl");
  std::ofstream(copy, std::ios::binary) << one.log_bytes;
  const EventLogScan scan = read_event_log(copy);
  ASSERT_EQ(scan.records.size(), static_cast<std::size_t>(2 * kRequests));
  EXPECT_EQ(join_event_log(scan).joined,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_FALSE(scan.truncated_tail);
  for (int i = 0; i < kRequests; ++i) {
    const auto idx = static_cast<std::size_t>(2 * i);
    EXPECT_EQ(scan.records[idx].type, EventType::kDecision) << i;
    EXPECT_EQ(scan.records[idx + 1].type, EventType::kFeedback) << i;
    EXPECT_EQ(scan.records[idx].decision_id,
              scan.records[idx + 1].decision_id)
        << i;
  }
}

TEST(ServeServer, RejectsBadHandshakeAndUnexpectedFrames) {
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  EngineOptions engine_options;
  engine_options.policy_spec = "eps-greedy:eps=0";
  engine_options.epsilon = 0.0;
  DecisionEngine engine(ring_graph(4), engine_options);

  std::atomic<bool> stop{false};
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.should_stop = [&stop] { return stop.load(); };
  ServerStats stats;
  std::thread server([&] { stats = run_server(engine, server_options); });

  {  // Wrong schema word in the Hello: dropped before any ack.
    const int fd = connect_retry(socket_path);
    ASSERT_GE(fd, 0);
    wire::HelloMsg hello;
    hello.schema = wire::kServeWireSchema + 9;
    wire::write_frame(fd, MsgType::kHello, wire::encode_hello(hello));
    EXPECT_FALSE(wire::read_frame(fd).has_value());  // clean EOF, no ack
    ::close(fd);
  }
  {  // Valid handshake, then a sweep frame type the serve reactor never
     // accepts: the connection is dropped, the error counted by name.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    wire::write_frame(fd, MsgType::kShutdown, "");
    EXPECT_FALSE(wire::read_frame(fd).has_value());
    ::close(fd);
  }
  {  // A healthy client is undisturbed by the two drops above.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    wire::DecideRequestMsg request;
    request.request_id = 1;
    request.user_key = "ok";
    wire::write_frame(fd, MsgType::kDecideRequest,
                      wire::encode_decide_request(request));
    const auto frame = wire::read_frame(fd);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kDecideReply);
    ::close(fd);
  }

  stop.store(true);
  server.join();
  EXPECT_EQ(stats.protocol_errors, 2u);
  EXPECT_EQ(stats.decide_requests, 1u);
  EXPECT_EQ(stats.connections_accepted, 3u);
}

#ifndef NCB_NO_METRICS
TEST(ServeServer, StatsPollingObservesExactCountersWithoutPerturbing) {
  obs::MetricsRegistry registry;
  const int kRequests = 96;
  ScenarioResult polled =
      run_scenario(2, kRequests, &registry, /*poll=*/true);

  // The golden hash from the unpolled scenario must survive a concurrent
  // StatsRequest hammer on a third connection: telemetry observes serving,
  // it never steers it.
  EXPECT_EQ(fnv1a(polled.log_bytes), kGoldenLogHash)
      << "actual hash 0x" << std::hex << fnv1a(polled.log_bytes);
  EXPECT_GT(polled.background_polls, 0u);

  const wire::StatsReplyMsg& live = polled.final_stats;
  EXPECT_EQ(stat_value(live, "serve.decide.requests"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.feedback.frames"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.engine.decisions"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.engine.feedbacks"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.log.records"), 2 * kRequests);
  EXPECT_EQ(stat_value(live, "serve.protocol.errors"), 0);
  // 2 lockstep clients + the poller connection.
  EXPECT_EQ(stat_value(live, "serve.connections.accepted"), 3);
  // The final poll counts itself before snapshotting.
  EXPECT_GE(stat_value(live, "serve.stats.requests"),
            static_cast<std::int64_t>(polled.background_polls) + 1);
  EXPECT_EQ(stat_value(live, "serve.decide.latency_us.count"), kRequests);
  EXPECT_EQ(stat_value(live, "serve.feedback.latency_us.count"), kRequests);
}

TEST(ServeServer, StatsRequestReportsProtocolAndDuplicateErrors) {
  obs::MetricsRegistry registry;
  TempDir dir;
  const std::string socket_path = dir.file("serve.sock");
  EngineOptions engine_options;
  engine_options.policy_spec = "eps-greedy:eps=0";
  engine_options.epsilon = 0.0;
  engine_options.metrics = &registry;
  DecisionEngine engine(ring_graph(4), engine_options);

  std::atomic<bool> stop{false};
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.should_stop = [&stop] { return stop.load(); };
  server_options.metrics = &registry;
  ServerStats stats;
  std::thread server([&] { stats = run_server(engine, server_options); });

  {  // Sweep-only frame type: dropped, counted by name.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    wire::write_frame(fd, MsgType::kShutdown, "");
    EXPECT_FALSE(wire::read_frame(fd).has_value());
    ::close(fd);
  }
  {  // A StatsRequest must carry an empty payload.
    const int fd = handshake_client(socket_path);
    ASSERT_GE(fd, 0);
    wire::write_frame(fd, MsgType::kStatsRequest, "boom");
    EXPECT_FALSE(wire::read_frame(fd).has_value());
    ::close(fd);
  }

  const int fd = handshake_client(socket_path);
  ASSERT_GE(fd, 0);
  wire::DecideRequestMsg request;
  request.request_id = 1;
  request.user_key = "dup";
  wire::write_frame(fd, MsgType::kDecideRequest,
                    wire::encode_decide_request(request));
  const auto frame = wire::read_frame(fd);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MsgType::kDecideReply);
  const wire::DecideReplyMsg reply =
      wire::decode_decide_reply(frame->payload);

  // Same decision acknowledged twice: first lands, second is a duplicate.
  wire::FeedbackMsg feedback;
  feedback.decision_id = reply.decision_id;
  feedback.reward = 0.5;
  wire::write_frame(fd, MsgType::kFeedback, wire::encode_feedback(feedback));
  wire::write_frame(fd, MsgType::kFeedback, wire::encode_feedback(feedback));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.duplicate_feedbacks() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const wire::StatsReplyMsg live = poll_stats_once(fd);
  EXPECT_EQ(stat_value(live, "serve.protocol.errors"), 2);
  EXPECT_EQ(stat_value(live, "serve.engine.duplicate_feedbacks"), 1);
  EXPECT_EQ(stat_value(live, "serve.engine.unknown_feedbacks"), 0);
  EXPECT_EQ(stat_value(live, "serve.engine.feedbacks"), 1);
  EXPECT_EQ(stat_value(live, "serve.decide.requests"), 1);
  EXPECT_EQ(stat_value(live, "serve.connections.accepted"), 3);
  ::close(fd);

  stop.store(true);
  server.join();
  EXPECT_EQ(stats.protocol_errors, 2u);
}
#endif  // NCB_NO_METRICS

}  // namespace
}  // namespace ncb::serve
