// The decision service's payloads on the wire/frame.hpp framing: a serve
// client says Hello with kServeWireSchema, then sends DecideRequest and
// Feedback frames and may poll StatsRequest; ncb_serve answers with
// DecideReply and StatsReply. Server (serve/server), clients
// (ncb_serve_driver, ncb_stats) and load generators all encode and decode
// through these functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "wire/frame.hpp"

namespace ncb::wire {

/// Serve wire schema (the Hello schema word of a serve client). Bump when
/// the decide/reply/feedback payloads or their semantics change.
inline constexpr std::uint32_t kServeWireSchema = 1;

struct DecideRequestMsg {
  std::uint64_t request_id = 0;  ///< Client-chosen token, echoed verbatim.
  std::uint64_t slot = 0;        ///< Client round tag, echoed verbatim.
  std::string user_key;          ///< Keys the per-user exploration stream.
};

struct DecideReplyMsg {
  std::uint64_t request_id = 0;  ///< Echo of the request.
  std::uint64_t slot = 0;        ///< Echo of the request.
  std::uint64_t decision_id = 0; ///< Server-assigned join key for Feedback.
  std::uint32_t action = 0;      ///< Chosen arm.
  double propensity = 0.0;       ///< P(action) under the logging policy.
};

struct FeedbackMsg {
  std::uint64_t decision_id = 0;
  double reward = 0.0;
};

[[nodiscard]] std::string encode_decide_request(const DecideRequestMsg& msg);
[[nodiscard]] DecideRequestMsg decode_decide_request(
    const std::string& payload);

[[nodiscard]] std::string encode_decide_reply(const DecideReplyMsg& msg);
[[nodiscard]] DecideReplyMsg decode_decide_reply(const std::string& payload);

[[nodiscard]] std::string encode_feedback(const FeedbackMsg& msg);
[[nodiscard]] FeedbackMsg decode_feedback(const std::string& payload);

/// StatsRequest carries no payload; the reply is the full registry,
/// flattened. Binary (not JSON) on purpose: a poller like ncb_stats needs
/// no JSON parser, and the server pays one pass over the registry.
struct StatsReplyMsg {
  std::vector<obs::StatEntry> entries;  ///< MetricsSnapshot::flatten order.
};

[[nodiscard]] std::string encode_stats_reply(const StatsReplyMsg& msg);
[[nodiscard]] StatsReplyMsg decode_stats_reply(const std::string& payload);

}  // namespace ncb::wire
