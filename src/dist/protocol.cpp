#include "dist/protocol.hpp"

namespace ncb::dist {

using wire::WireReader;
using wire::WireWriter;

std::string encode_job_assign(const JobAssignMsg& msg) {
  WireWriter out;
  out.put_u32(msg.attempt);
  out.put_u64(msg.checkpoints);
  out.put_u64(msg.shard_size);
  out.put_u64(msg.job.index);
  out.put_string(msg.job.key);
  out.put_string(msg.job.policy);
  out.put_string(exp::scenario_token(msg.job.scenario));
  const ExperimentConfig& config = msg.job.config;
  out.put_string(exp::family_token(config.graph_family));
  out.put_u64(config.num_arms);
  out.put_double(config.edge_probability);
  out.put_u64(config.family_param);
  out.put_u64(static_cast<std::uint64_t>(config.horizon));
  out.put_u64(config.replications);
  out.put_u64(config.seed);
  out.put_u64(config.strategy_size);
  out.put_u8(config.exact_size_strategies ? 1 : 0);
  return out.take();
}

JobAssignMsg decode_job_assign(const std::string& payload) {
  WireReader in(payload);
  JobAssignMsg msg;
  msg.attempt = in.get_u32();
  msg.checkpoints = in.get_u64();
  msg.shard_size = in.get_u64();
  msg.job.index = static_cast<std::size_t>(in.get_u64());
  msg.job.key = in.get_string();
  msg.job.policy = in.get_string();
  msg.job.scenario = exp::parse_scenario(in.get_string());
  ExperimentConfig& config = msg.job.config;
  config.graph_family = exp::parse_family(in.get_string());
  config.num_arms = static_cast<std::size_t>(in.get_u64());
  config.edge_probability = in.get_double();
  config.family_param = static_cast<std::size_t>(in.get_u64());
  config.horizon = static_cast<TimeSlot>(in.get_u64());
  config.replications = static_cast<std::size_t>(in.get_u64());
  config.seed = in.get_u64();
  config.strategy_size = static_cast<std::size_t>(in.get_u64());
  config.exact_size_strategies = in.get_u8() != 0;
  config.name = msg.job.key;  // mirrors SweepSpec::expand
  in.finish();
  return msg;
}

std::string encode_job_result(const JobResultMsg& msg) {
  WireWriter out;
  out.put_string(msg.key);
  out.put_string(msg.record_line);
  out.put_double(msg.seconds);
  out.put_u64(msg.shards);
  out.put_u64(msg.shard_size);
  return out.take();
}

JobResultMsg decode_job_result(const std::string& payload) {
  WireReader in(payload);
  JobResultMsg msg;
  msg.key = in.get_string();
  msg.record_line = in.get_string();
  msg.seconds = in.get_double();
  msg.shards = in.get_u64();
  msg.shard_size = in.get_u64();
  in.finish();
  return msg;
}

}  // namespace ncb::dist
