#include "wire/serve_messages.hpp"

namespace ncb::wire {

std::string encode_decide_request(const DecideRequestMsg& msg) {
  WireWriter out;
  out.put_u64(msg.request_id);
  out.put_u64(msg.slot);
  out.put_string(msg.user_key);
  return out.take();
}

DecideRequestMsg decode_decide_request(const std::string& payload) {
  WireReader in(payload);
  DecideRequestMsg msg;
  msg.request_id = in.get_u64();
  msg.slot = in.get_u64();
  msg.user_key = in.get_string();
  in.finish();
  return msg;
}

std::string encode_decide_reply(const DecideReplyMsg& msg) {
  WireWriter out;
  out.put_u64(msg.request_id);
  out.put_u64(msg.slot);
  out.put_u64(msg.decision_id);
  out.put_u32(msg.action);
  out.put_double(msg.propensity);
  return out.take();
}

DecideReplyMsg decode_decide_reply(const std::string& payload) {
  WireReader in(payload);
  DecideReplyMsg msg;
  msg.request_id = in.get_u64();
  msg.slot = in.get_u64();
  msg.decision_id = in.get_u64();
  msg.action = in.get_u32();
  msg.propensity = in.get_double();
  in.finish();
  return msg;
}

std::string encode_feedback(const FeedbackMsg& msg) {
  WireWriter out;
  out.put_u64(msg.decision_id);
  out.put_double(msg.reward);
  return out.take();
}

FeedbackMsg decode_feedback(const std::string& payload) {
  WireReader in(payload);
  FeedbackMsg msg;
  msg.decision_id = in.get_u64();
  msg.reward = in.get_double();
  in.finish();
  return msg;
}

std::string encode_stats_reply(const StatsReplyMsg& msg) {
  WireWriter out;
  out.put_u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const obs::StatEntry& entry : msg.entries) {
    out.put_u8(entry.kind);
    out.put_string(entry.name);
    out.put_u64(entry.value);
  }
  return out.take();
}

StatsReplyMsg decode_stats_reply(const std::string& payload) {
  WireReader in(payload);
  StatsReplyMsg msg;
  const std::uint32_t count = in.get_u32();
  // kind u8 + name length u32 + value u64 per entry, at the least.
  in.check_count(count, 13, "stats entry");
  msg.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::StatEntry entry;
    entry.kind = in.get_u8();
    entry.name = in.get_string();
    entry.value = in.get_u64();
    msg.entries.push_back(std::move(entry));
  }
  in.finish();
  return msg;
}

}  // namespace ncb::wire
