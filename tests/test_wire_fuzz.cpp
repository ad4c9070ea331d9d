// Seeded fuzz loops over every decoder a peer or a log file can reach:
// wire::FrameDecoder, every public decode_* (wire/frame, wire/serve_messages,
// dist/protocol, replay/dispatch) and serve::scan_event_records. Each loop
// starts from valid bytes — one frame of every MsgType, or a run of
// event-log records — and applies seeded byte flips, truncations,
// extensions and overwritten length words. Every call must either return
// or throw its documented std::invalid_argument; anything else fails the
// test, and under the sanitizer build (./ci.sh asan) so does any
// out-of-bounds access.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dist/protocol.hpp"
#include "replay/dispatch.hpp"
#include "serve/event_log.hpp"
#include "wire/frame.hpp"
#include "wire/serve_messages.hpp"

namespace ncb::wire {
namespace {

constexpr int kIterations = 20000;
constexpr std::uint32_t kFuzzSeed = 20170605;

/// Tallies how the calls under test ended, so a loop that only ever
/// rejects (or only ever accepts) shows up as a failed expectation rather
/// than as a vacuous pass.
struct Outcomes {
  std::size_t returned = 0;
  std::size_t rejected = 0;
};

/// Runs `call`; a std::invalid_argument is the documented rejection, any
/// other exception is a test failure naming the iteration and decoder.
template <typename Call>
void returns_or_rejects(Outcomes& outcomes, int iteration, const char* what,
                        Call&& call) {
  try {
    call();
    ++outcomes.returned;
  } catch (const std::invalid_argument&) {
    ++outcomes.rejected;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << " threw an undocumented exception at iteration "
                  << iteration << ": " << error.what();
  }
}

/// Applies 1–4 seeded mutations to `bytes`.
void mutate(std::string& bytes, std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_int_distribution<int> byte(0, 255);
  const int count = 1 + pick(rng);
  for (int m = 0; m < count; ++m) {
    switch (pick(rng)) {
      case 0: {  // flip one byte
        if (bytes.empty()) break;
        const std::size_t at = rng() % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + byte(rng) % 255));
        break;
      }
      case 1:  // truncate
        bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
        break;
      case 2: {  // extend with 1–16 random bytes
        const std::size_t extra = 1 + rng() % 16;
        for (std::size_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<char>(byte(rng)));
        }
        break;
      }
      default: {  // overwrite a u32 with a boundary value (lengths, counts)
        if (bytes.size() < 4) break;
        static constexpr std::uint32_t kBoundaries[] = {
            0, 1, 0x7fffffffu, 0xffffffffu, kMaxFramePayload,
            kMaxFramePayload + 1};
        const std::uint32_t value =
            kBoundaries[rng() % (sizeof kBoundaries / sizeof *kBoundaries)];
        const std::size_t at = rng() % (bytes.size() - 3);
        std::string word;
        append_le(word, value);
        bytes.replace(at, 4, word);
        break;
      }
    }
  }
}

dist::JobAssignMsg seed_job_assign() {
  dist::JobAssignMsg msg;
  msg.attempt = 2;
  msg.checkpoints = 12;
  msg.shard_size = 4;
  msg.job.index = 3;
  msg.job.key = "sso:ucb1@er,K=12,p=0.3,n=60";
  msg.job.policy = "ucb1";
  msg.job.scenario = Scenario::kSso;
  msg.job.config.graph_family = GraphFamily::kErdosRenyi;
  msg.job.config.num_arms = 12;
  msg.job.config.edge_probability = 0.3;
  msg.job.config.horizon = 60;
  msg.job.config.replications = 3;
  msg.job.config.seed = 7;
  return msg;
}

/// Two event-log records: a decision and the feedback that joins it.
std::vector<serve::EventRecord> seed_records() {
  return {{serve::EventType::kDecision, 41, "user-7", 3, 0.25, 0.0},
          {serve::EventType::kFeedback, 41, "", kNoArm, 0.0, 1.0}};
}

/// The seed records as the log file stores them.
std::string seed_event_records() {
  std::string records;
  for (const serve::EventRecord& record : seed_records()) {
    serve::append_event_record(records, record);
  }
  return records;
}

/// One valid payload for every MsgType, in enum order.
std::vector<Frame> seed_frames() {
  HelloMsg hello;
  hello.schema = kServeWireSchema;
  dist::JobResultMsg result;
  result.key = "sso:ucb1@er,K=12,p=0.3,n=60";
  result.record_line = "{\"key\": 1}";
  result.seconds = 0.5;
  result.shards = 2;
  result.shard_size = 4;
  DecideRequestMsg request;
  request.request_id = 9;
  request.slot = 4;
  request.user_key = "user-7";
  DecideReplyMsg reply;
  reply.request_id = 9;
  reply.slot = 4;
  reply.decision_id = 41;
  reply.action = 3;
  reply.propensity = 0.25;
  StatsReplyMsg stats;
  stats.entries = {{0, "serve.decide.requests", 10}, {1, "g", 5}};
  replay::ReplayInitMsg replay_init;
  replay_init.epsilon = 0.1;
  replay_init.seed = 7;
  replay_init.horizon = 1000;
  replay_init.family = "er";
  replay_init.num_arms = 4;
  replay_init.edge_probability = 0.3;
  replay_init.arm_model = {0.25, 0.5, 0.75, 1.0};
  replay_init.model_arm_average = 0.625;
  replay_init.chunks = 1;
  replay_init.total_records = 2;
  const std::vector<std::string> replay_events =
      replay::encode_event_chunks(seed_records());
  replay::ReplayResultMsg replay_result;
  replay_result.index = 1;
  replay_result.summary.spec = "ucb1";
  replay_result.summary.description = "UCB1";
  replay_result.summary.decisions = 2;
  replay_result.summary.matched = 1;
  replay_result.summary.ips_stat.add(0.5);
  replay_result.summary.ips_stat.add(1.5);
  replay_result.summary.dr_stat.add(0.75);
  replay_result.summary.weight_sum = 2.0;

  std::vector<Frame> frames = {
      {MsgType::kHello, encode_hello(hello)},
      {MsgType::kHelloAck, encode_hello_ack()},
      {MsgType::kJobAssign, dist::encode_job_assign(seed_job_assign())},
      {MsgType::kJobResult, dist::encode_job_result(result)},
      {MsgType::kWorkerError, encode_worker_error({"key", "message"})},
      {MsgType::kShutdown, ""},
      {MsgType::kDecideRequest, encode_decide_request(request)},
      {MsgType::kDecideReply, encode_decide_reply(reply)},
      {MsgType::kFeedback, encode_feedback({41, 1.0})},
      {MsgType::kWorkerInfo, encode_worker_info({"host", 1234, 4})},
      {MsgType::kReplayInit, replay::encode_replay_init(replay_init)},
      {MsgType::kReplayEvents, replay_events.at(0)},
      {MsgType::kReplayAssign, replay::encode_replay_assign({1, 2, "ucb1"})},
      {MsgType::kReplayResult, replay::encode_replay_result(replay_result)},
      {MsgType::kStatsRequest, ""},
      {MsgType::kStatsReply, encode_stats_reply(stats)},
  };
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(frames[i].type), i + 1)
        << "seed_frames must cover every MsgType in order";
  }
  return frames;
}

/// Feeds `payload` to every public payload decoder.
void decode_everything(const std::string& payload, Outcomes& outcomes,
                       int iteration) {
  returns_or_rejects(outcomes, iteration, "decode_hello", [&] {
    (void)validate_hello(decode_hello(payload), kServeWireSchema);
  });
  returns_or_rejects(outcomes, iteration, "decode_hello_ack",
                     [&] { decode_hello_ack(payload); });
  returns_or_rejects(outcomes, iteration, "decode_worker_error",
                     [&] { (void)decode_worker_error(payload); });
  returns_or_rejects(outcomes, iteration, "decode_worker_info",
                     [&] { (void)decode_worker_info(payload); });
  returns_or_rejects(outcomes, iteration, "decode_decide_request",
                     [&] { (void)decode_decide_request(payload); });
  returns_or_rejects(outcomes, iteration, "decode_decide_reply",
                     [&] { (void)decode_decide_reply(payload); });
  returns_or_rejects(outcomes, iteration, "decode_feedback",
                     [&] { (void)decode_feedback(payload); });
  returns_or_rejects(outcomes, iteration, "decode_stats_reply",
                     [&] { (void)decode_stats_reply(payload); });
  returns_or_rejects(outcomes, iteration, "decode_job_assign",
                     [&] { (void)dist::decode_job_assign(payload); });
  returns_or_rejects(outcomes, iteration, "decode_job_result",
                     [&] { (void)dist::decode_job_result(payload); });
  returns_or_rejects(outcomes, iteration, "decode_replay_init",
                     [&] { (void)replay::decode_replay_init(payload); });
  returns_or_rejects(outcomes, iteration, "decode_event_chunk", [&] {
    std::vector<serve::EventRecord> records;
    replay::decode_event_chunk(payload, 0, records);
  });
  returns_or_rejects(outcomes, iteration, "decode_replay_assign",
                     [&] { (void)replay::decode_replay_assign(payload); });
  returns_or_rejects(outcomes, iteration, "decode_replay_result",
                     [&] { (void)replay::decode_replay_result(payload); });
}

TEST(WireFuzz, FrameDecoderReturnsFramesOrRejectsMutatedStreams) {
  const std::vector<Frame> seeds = seed_frames();
  std::mt19937 rng(kFuzzSeed);
  Outcomes outcomes;
  std::size_t frames_decoded = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    // One or two seed frames back to back, then mutations over the lot.
    std::string stream;
    for (std::size_t n = 1 + rng() % 2; n > 0; --n) {
      const Frame& seed = seeds[rng() % seeds.size()];
      append_frame(stream, seed.type, seed.payload);
    }
    mutate(stream, rng);

    // Fed in seeded chunks, so a header split across feeds is covered too.
    FrameDecoder decoder;
    std::string reencoded;
    returns_or_rejects(outcomes, iteration, "FrameDecoder", [&] {
      std::size_t at = 0;
      while (at < stream.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(stream.size() - at, 1 + rng() % 32);
        decoder.feed(stream.data() + at, chunk);
        at += chunk;
        while (const std::optional<Frame> frame = decoder.next()) {
          ++frames_decoded;
          append_frame(reencoded, frame->type, frame->payload);
          decode_everything(frame->payload, outcomes, iteration);
        }
      }
    });
    // Whatever the decoder handed out is exactly a prefix of the stream.
    ASSERT_EQ(std::string_view(stream).substr(0, reencoded.size()), reencoded)
        << "iteration " << iteration;
  }
  EXPECT_GT(frames_decoded, 0u);
  EXPECT_GT(outcomes.returned, 0u);
  EXPECT_GT(outcomes.rejected, 0u);
}

TEST(WireFuzz, PayloadDecodersReturnOrRejectMutatedPayloads) {
  const std::vector<Frame> seeds = seed_frames();
  std::mt19937 rng(kFuzzSeed + 1);
  Outcomes outcomes;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string payload = seeds[rng() % seeds.size()].payload;
    mutate(payload, rng);
    decode_everything(payload, outcomes, iteration);
  }
  EXPECT_GT(outcomes.returned, 0u);
  EXPECT_GT(outcomes.rejected, 0u);
}

TEST(WireFuzz, ReplaySeedPayloadsDecode) {
  // The replay seeds are real encodings, so the fuzz loops start from
  // payloads each replay decoder accepts.
  const std::vector<Frame> seeds = seed_frames();
  const auto payload = [&](MsgType type) {
    return seeds.at(static_cast<std::size_t>(type) - 1).payload;
  };
  EXPECT_EQ(replay::decode_replay_init(payload(MsgType::kReplayInit))
                .arm_model.size(),
            4u);
  std::vector<serve::EventRecord> records;
  replay::decode_event_chunk(payload(MsgType::kReplayEvents), 0, records);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(replay::decode_replay_assign(payload(MsgType::kReplayAssign)).spec,
            "ucb1");
  EXPECT_EQ(replay::decode_replay_result(payload(MsgType::kReplayResult))
                .summary.ips_stat.count(),
            2u);
}

TEST(WireFuzz, EventRecordScanReturnsAPrefixOrRejects) {
  const std::string seed = seed_event_records() + seed_event_records();
  std::mt19937 rng(kFuzzSeed + 2);
  Outcomes outcomes;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string bytes = seed;
    mutate(bytes, rng);
    std::vector<serve::EventRecord> records;
    returns_or_rejects(outcomes, iteration, "scan_event_records", [&] {
      const std::size_t valid = serve::scan_event_records(bytes, records);
      // The documented split: a decoded prefix, then at most one
      // incomplete record (a short header, or a header whose payload
      // runs past the end).
      ASSERT_LE(valid, bytes.size()) << "iteration " << iteration;
      const std::size_t tail = bytes.size() - valid;
      if (tail >= kFrameHeaderBytes) {
        const FrameHeader header = parse_frame_header(bytes.data() + valid);
        EXPECT_GT(kFrameHeaderBytes + header.length, tail)
            << "iteration " << iteration;
      }
    });
  }
  EXPECT_GT(outcomes.returned, 0u);
  EXPECT_GT(outcomes.rejected, 0u);
}

}  // namespace
}  // namespace ncb::wire
