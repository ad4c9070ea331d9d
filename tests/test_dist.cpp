// Dispatch layer (src/dist/) and the wire/ framing it rides on: wire-format
// round-trips, frame decoding against truncated/oversized/garbage input,
// versioned-handshake rejection, and the worker loop driven in-process over
// a socketpair — including the determinism contract that a job's record
// line is byte-identical whether rendered by a worker or by the in-process
// engine, on any attempt.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exp/emitters.hpp"
#include "exp/sweep_runner.hpp"
#include "wire/frame.hpp"
#include "wire/serve_messages.hpp"

namespace ncb::dist {
namespace {

using namespace wire;  // The framing and admission codecs under test.

exp::SweepJob make_test_job() {
  exp::SweepJob job;
  job.index = 3;
  job.key = "sso:ucb1@er,K=12,p=0.3,n=60";
  job.policy = "ucb1";
  job.scenario = Scenario::kSso;
  job.config.name = job.key;
  job.config.graph_family = GraphFamily::kErdosRenyi;
  job.config.num_arms = 12;
  job.config.edge_probability = 0.3;
  job.config.family_param = 4;
  job.config.horizon = 60;
  job.config.replications = 3;
  job.config.seed = 20170605;
  job.config.strategy_size = 3;
  job.config.exact_size_strategies = false;
  return job;
}

// ---------------------------------------------------------------- wire ---

TEST(Wire, ScalarAndStringRoundTrip) {
  WireWriter out;
  out.put_u8(0xab);
  out.put_u32(0xdeadbeefu);
  out.put_u64(0x0123456789abcdefULL);
  out.put_double(-1234.5678);
  out.put_string("hello \"quoted\", commas, \n newline");
  out.put_string("");
  const std::string payload = out.take();

  WireReader in(payload);
  EXPECT_EQ(in.get_u8(), 0xab);
  EXPECT_EQ(in.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(in.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.get_double(), -1234.5678);
  EXPECT_EQ(in.get_string(), "hello \"quoted\", commas, \n newline");
  EXPECT_EQ(in.get_string(), "");
  in.finish();
}

TEST(Wire, DoubleBitPatternIsExact) {
  // Shortest-round-trip formatting is not involved: the bit pattern rides.
  const double tricky = 0.1 + 0.2;
  WireWriter out;
  out.put_double(tricky);
  const std::string payload = out.take();
  WireReader in(payload);
  EXPECT_EQ(in.get_double(), tricky);
}

TEST(Wire, TruncatedPayloadThrows) {
  WireWriter out;
  out.put_u64(42);
  const std::string payload = out.take();
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string partial = payload.substr(0, cut);
    WireReader in(partial);
    EXPECT_THROW((void)in.get_u64(), std::invalid_argument) << cut;
  }
}

TEST(Wire, StringLengthBeyondPayloadThrows) {
  WireWriter out;
  out.put_u32(1000);  // claims 1000 bytes, none follow
  const std::string payload = out.take();
  WireReader in(payload);
  EXPECT_THROW((void)in.get_string(), std::invalid_argument);
}

TEST(Wire, TrailingBytesRejectedByFinish) {
  WireWriter out;
  out.put_u32(7);
  out.put_u8(9);
  const std::string payload = out.take();
  WireReader in(payload);
  EXPECT_EQ(in.get_u32(), 7u);
  EXPECT_THROW(in.finish(), std::invalid_argument);
}

TEST(Wire, CheckCountMeasuresAgainstTheUnreadBytes) {
  WireWriter out;
  out.put_u32(3);
  out.put_u64(1);
  const std::string bytes = out.take();
  WireReader in(bytes);
  EXPECT_EQ(in.remaining(), 12u);
  EXPECT_EQ(in.get_u32(), 3u);
  EXPECT_EQ(in.remaining(), 8u);
  EXPECT_NO_THROW(in.check_count(1, 8, "u64"));
  EXPECT_THROW(in.check_count(2, 8, "u64"), std::invalid_argument);
}

// ------------------------------------------------------------ messages ---

TEST(Messages, HelloRoundTripAndValidation) {
  HelloMsg hello;
  hello.schema = static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  const HelloMsg decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.magic, kProtocolMagic);
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded.schema, hello.schema);
  EXPECT_FALSE(validate_hello(decoded, hello.schema).has_value());
}

TEST(Messages, ValidateHelloRejectsEveryMismatch) {
  HelloMsg hello;
  hello.schema = static_cast<std::uint32_t>(exp::kSweepSchemaVersion);

  HelloMsg bad_magic = hello;
  bad_magic.magic = 0x12345678;
  const auto magic_error = validate_hello(bad_magic, hello.schema);
  ASSERT_TRUE(magic_error.has_value());
  EXPECT_NE(magic_error->find("magic"), std::string::npos);
  EXPECT_NE(magic_error->find("0x12345678"), std::string::npos)
      << *magic_error;

  HelloMsg bad_version = hello;
  bad_version.protocol_version = kProtocolVersion + 1;
  const auto version_error = validate_hello(bad_version, hello.schema);
  ASSERT_TRUE(version_error.has_value());
  EXPECT_NE(version_error->find("protocol version mismatch"),
            std::string::npos);

  const auto schema_error = validate_hello(hello, hello.schema + 1);
  ASSERT_TRUE(schema_error.has_value());
  EXPECT_NE(schema_error->find("schema mismatch"), std::string::npos);
}

TEST(Messages, HelloAckVersionMismatchThrows) {
  WireWriter out;
  out.put_u32(kProtocolVersion + 7);
  EXPECT_THROW(decode_hello_ack(out.take()), std::invalid_argument);
  EXPECT_NO_THROW(decode_hello_ack(encode_hello_ack()));
}

TEST(Messages, JobAssignRoundTripsEveryField) {
  JobAssignMsg msg;
  msg.attempt = 2;
  msg.checkpoints = 17;
  msg.shard_size = 5;
  msg.job = make_test_job();
  msg.job.scenario = Scenario::kCso;
  msg.job.config.exact_size_strategies = true;
  msg.job.config.seed = 0xfedcba9876543210ULL;  // > 2^53: must stay exact

  const JobAssignMsg decoded = decode_job_assign(encode_job_assign(msg));
  EXPECT_EQ(decoded.attempt, 2u);
  EXPECT_EQ(decoded.checkpoints, 17u);
  EXPECT_EQ(decoded.shard_size, 5u);
  EXPECT_EQ(decoded.job.index, msg.job.index);
  EXPECT_EQ(decoded.job.key, msg.job.key);
  EXPECT_EQ(decoded.job.policy, msg.job.policy);
  EXPECT_EQ(decoded.job.scenario, Scenario::kCso);
  EXPECT_EQ(decoded.job.config.graph_family, GraphFamily::kErdosRenyi);
  EXPECT_EQ(decoded.job.config.num_arms, 12u);
  EXPECT_EQ(decoded.job.config.edge_probability, 0.3);
  EXPECT_EQ(decoded.job.config.family_param, 4u);
  EXPECT_EQ(decoded.job.config.horizon, 60);
  EXPECT_EQ(decoded.job.config.replications, 3u);
  EXPECT_EQ(decoded.job.config.seed, 0xfedcba9876543210ULL);
  EXPECT_EQ(decoded.job.config.strategy_size, 3u);
  EXPECT_TRUE(decoded.job.config.exact_size_strategies);
  EXPECT_EQ(decoded.job.config.name, msg.job.key);
}

TEST(Messages, JobResultAndWorkerErrorRoundTrip) {
  JobResultMsg result;
  result.key = "some:key";
  result.record_line = "{\"key\":\"some:key\",...}";
  result.seconds = 1.25;
  result.shards = 7;
  result.shard_size = 2;
  const JobResultMsg decoded = decode_job_result(encode_job_result(result));
  EXPECT_EQ(decoded.key, result.key);
  EXPECT_EQ(decoded.record_line, result.record_line);
  EXPECT_EQ(decoded.seconds, 1.25);
  EXPECT_EQ(decoded.shards, 7u);
  EXPECT_EQ(decoded.shard_size, 2u);

  WorkerErrorMsg error;
  error.key = "k";
  error.message = "unknown policy 'nope'";
  const WorkerErrorMsg decoded_error =
      decode_worker_error(encode_worker_error(error));
  EXPECT_EQ(decoded_error.key, "k");
  EXPECT_EQ(decoded_error.message, "unknown policy 'nope'");
}

TEST(Messages, StatsReplyCountBeyondPayloadIsRejectedBeforeAllocating) {
  // A count of 2^32 - 1 stats entries with no entry bytes behind it: the
  // decoder must refuse it as a truncated payload, not try to reserve it.
  EXPECT_THROW((void)decode_stats_reply(std::string(4, '\xff')),
               std::invalid_argument);

  // One entry declared and present decodes; two declared, one present,
  // does not.
  StatsReplyMsg one;
  one.entries.push_back({obs::kStatCounter, "a.b", 5});
  const std::string payload = encode_stats_reply(one);
  ASSERT_EQ(decode_stats_reply(payload).entries.size(), 1u);
  std::string two_claimed = payload;
  two_claimed[0] = 2;
  EXPECT_THROW((void)decode_stats_reply(two_claimed), std::invalid_argument);
}

// ------------------------------------------------------------- framing ---

std::string frame_bytes(MsgType type, const std::string& payload) {
  std::string wire;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  wire.push_back(static_cast<char>(type));
  wire.append(payload);
  return wire;
}

TEST(FrameDecoder, ReassemblesByteAtATime) {
  const std::string wire = frame_bytes(MsgType::kJobResult, "payload-bytes");
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(&wire[i], 1);
    EXPECT_FALSE(decoder.next().has_value()) << "at byte " << i;
  }
  decoder.feed(&wire[wire.size() - 1], 1);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kJobResult);
  EXPECT_EQ(frame->payload, "payload-bytes");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoder, DrainsMultipleFramesFromOneFeed) {
  const std::string wire = frame_bytes(MsgType::kHello, "a") +
                           frame_bytes(MsgType::kShutdown, "") +
                           frame_bytes(MsgType::kJobAssign, "bb");
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto first = decoder.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kHello);
  const auto second = decoder.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MsgType::kShutdown);
  EXPECT_TRUE(second->payload.empty());
  const auto third = decoder.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->payload, "bb");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoder, RejectsOversizedLengthPrefix) {
  std::string wire = frame_bytes(MsgType::kHello, "");
  const std::uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire[static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW((void)decoder.next(), std::invalid_argument);
}

TEST(FrameDecoder, RejectsUnknownMessageType) {
  std::string wire = frame_bytes(MsgType::kHello, "x");
  wire[4] = static_cast<char>(0x7f);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW((void)decoder.next(), std::invalid_argument);
}

TEST(FrameDecoder, GarbageFuzzNeverCrashes) {
  // Random bytes must only ever yield frames, "need more", or a clean
  // invalid_argument — never UB. Seeded, so failures reproduce.
  std::mt19937 rng(20170605);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    std::string junk(64, '\0');
    for (char& c : junk) c = static_cast<char>(byte(rng));
    try {
      decoder.feed(junk.data(), junk.size());
      for (int i = 0; i < 16; ++i) {
        if (!decoder.next().has_value()) break;
      }
    } catch (const std::invalid_argument&) {
      // Expected for most corrupt streams.
    }
  }
}

TEST(FrameIo, RoundTripsOverAPipeAndSignalsCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], MsgType::kWorkerError, "oops");
  const auto frame = read_frame(fds[0]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kWorkerError);
  EXPECT_EQ(frame->payload, "oops");
  ::close(fds[1]);
  EXPECT_FALSE(read_frame(fds[0]).has_value());  // EOF at a frame boundary
  ::close(fds[0]);
}

TEST(FrameIo, EofMidFrameThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string wire = frame_bytes(MsgType::kJobResult, "truncated!");
  const std::string partial = wire.substr(0, wire.size() - 3);
  ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::close(fds[1]);
  EXPECT_THROW((void)read_frame(fds[0]), std::runtime_error);
  ::close(fds[0]);
}

// ----------------------------------------------- worker loop, in-thread ---

struct WorkerHarness {
  int coordinator_fd = -1;
  std::thread thread;
  int exit_code = -1;

  explicit WorkerHarness(std::size_t threads = 1) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    coordinator_fd = sv[0];
    const int worker_fd = sv[1];
    thread = std::thread([this, worker_fd, threads] {
      WorkerOptions options;
      options.fd = worker_fd;
      options.threads = threads;
      exit_code = run_worker(options);
      ::close(worker_fd);
    });
  }

  ~WorkerHarness() {
    if (coordinator_fd >= 0) ::close(coordinator_fd);
    if (thread.joinable()) thread.join();
  }

  /// Completes the coordinator side of the handshake: Hello, then the
  /// WorkerInfo identity frame, then the ack that admits the worker.
  void accept() {
    const auto hello = read_frame(coordinator_fd);
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(hello->type, MsgType::kHello);
    const HelloMsg msg = decode_hello(hello->payload);
    ASSERT_FALSE(validate_hello(
                     msg, static_cast<std::uint32_t>(exp::kSweepSchemaVersion))
                     .has_value());
    const auto info = read_frame(coordinator_fd);
    ASSERT_TRUE(info.has_value());
    ASSERT_EQ(info->type, MsgType::kWorkerInfo);
    const WorkerInfoMsg identity = decode_worker_info(info->payload);
    EXPECT_FALSE(identity.host.empty());
    EXPECT_GT(identity.pid, 0u);
    EXPECT_GT(identity.threads, 0u);
    write_frame(coordinator_fd, MsgType::kHelloAck, encode_hello_ack());
  }

  void finish() {
    write_frame(coordinator_fd, MsgType::kShutdown, "");
    thread.join();
    ::close(coordinator_fd);
    coordinator_fd = -1;
  }
};

TEST(WorkerLoop, RunsJobsAndMatchesInProcessBytesOnAnyAttempt) {
  const exp::SweepJob job = make_test_job();
  const std::size_t checkpoints = 8;

  // In-process reference rendering of the same job.
  exp::SweepRunOptions reference_options;
  const exp::JobOutcome reference =
      exp::run_sweep_job(job, checkpoints, reference_options);
  const std::string expected = exp::render_job_json(
      exp::JobRecord::from(reference.job, reference.aggregate));

  WorkerHarness harness;
  harness.accept();
  for (const std::uint32_t attempt : {1u, 2u, 3u}) {
    JobAssignMsg assign;
    assign.attempt = attempt;
    assign.checkpoints = checkpoints;
    assign.shard_size = attempt;  // shard size must not change the bytes
    assign.job = job;
    write_frame(harness.coordinator_fd, MsgType::kJobAssign,
                encode_job_assign(assign));
    const auto reply = read_frame(harness.coordinator_fd);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kJobResult);
    const JobResultMsg result = decode_job_result(reply->payload);
    EXPECT_EQ(result.key, job.key);
    EXPECT_EQ(result.record_line, expected) << "attempt " << attempt;
  }
  harness.finish();
  EXPECT_EQ(harness.exit_code, 0);
}

TEST(WorkerLoop, ReportsJobErrorsInsteadOfCrashing) {
  WorkerHarness harness;
  harness.accept();
  JobAssignMsg assign;
  assign.checkpoints = 4;
  assign.job = make_test_job();
  assign.job.policy = "definitely-not-a-policy";
  write_frame(harness.coordinator_fd, MsgType::kJobAssign,
              encode_job_assign(assign));
  const auto reply = read_frame(harness.coordinator_fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kWorkerError);
  const WorkerErrorMsg error = decode_worker_error(reply->payload);
  EXPECT_EQ(error.key, assign.job.key);
  EXPECT_FALSE(error.message.empty());
  harness.thread.join();
  EXPECT_EQ(harness.exit_code, 1);
}

TEST(WorkerLoop, RejectsCoordinatorVersionMismatch) {
  WorkerHarness harness;
  const auto hello = read_frame(harness.coordinator_fd);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, MsgType::kHello);
  WireWriter bad_ack;
  bad_ack.put_u32(kProtocolVersion + 1);
  write_frame(harness.coordinator_fd, MsgType::kHelloAck, bad_ack.take());
  harness.thread.join();
  EXPECT_EQ(harness.exit_code, 2);
}

TEST(WorkerLoop, ExitsCleanlyWhenCoordinatorVanishesBeforeHandshake) {
  WorkerHarness harness;
  ::close(harness.coordinator_fd);
  harness.coordinator_fd = -1;
  harness.thread.join();
  EXPECT_EQ(harness.exit_code, 0);
}

}  // namespace
}  // namespace ncb::dist
