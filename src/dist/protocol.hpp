// The sweep dispatch layer's job messages on the wire/frame.hpp framing:
// JobAssign (coordinator → worker) and JobResult (worker → coordinator).
//
// Determinism note: a JobAssign carries the job's original spec coordinates
// (including its seed), and replications derive counter-based seeds from
// those — so a job produces bit-identical results on any worker, on any
// attempt, which is what lets a crash-requeued job merge byte-identically.
#pragma once

#include <cstdint>
#include <string>

#include "exp/sweep_spec.hpp"
#include "wire/frame.hpp"
#include "wire/serve_messages.hpp"

namespace ncb::dist {

struct JobAssignMsg {
  std::uint32_t attempt = 1;    ///< 1-based; > 1 means crash-requeued.
  std::uint64_t checkpoints = 0;
  std::uint64_t shard_size = 0;
  exp::SweepJob job;
};

struct JobResultMsg {
  std::string key;
  std::string record_line;  ///< render_job_json output (deterministic bytes).
  double seconds = 0.0;
  std::uint64_t shards = 0;
  std::uint64_t shard_size = 0;
};

[[nodiscard]] std::string encode_job_assign(const JobAssignMsg& msg);
[[nodiscard]] JobAssignMsg decode_job_assign(const std::string& payload);

[[nodiscard]] std::string encode_job_result(const JobResultMsg& msg);
[[nodiscard]] JobResultMsg decode_job_result(const std::string& payload);

// Forwarders for the perfbench load generator (perfbench/src/), which
// still names the framing and serve messages as dist:: symbols; they are
// its only reason to exist. Code in this repository names wire:: directly.
using wire::append_frame, wire::decode_decide_reply,
    wire::decode_decide_request, wire::decode_feedback, wire::decode_hello_ack,
    wire::decode_stats_reply, wire::DecideReplyMsg, wire::DecideRequestMsg,
    wire::encode_decide_reply, wire::encode_decide_request,
    wire::encode_feedback, wire::encode_hello, wire::FeedbackMsg, wire::Frame,
    wire::FrameDecoder, wire::HelloMsg, wire::kServeWireSchema, wire::MsgType,
    wire::read_frame, wire::write_frame;

}  // namespace ncb::dist
