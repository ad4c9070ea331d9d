#include "replay/dispatch.hpp"

#include <signal.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/policy_registry.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_spec.hpp"

namespace ncb::replay {

namespace {

using dist::Frame;
using dist::MsgType;
using dist::WireReader;
using dist::WireWriter;

/// Target encoded size of one ReplayEvents chunk. Well under the 16 MiB
/// frame cap with room for the longest plausible key; small enough that a
/// slow link shows steady progress instead of one giant stall.
constexpr std::size_t kChunkBytes = 1u << 20;
/// ReplayEvents header: u32 chunk_index | u32 count.
constexpr std::size_t kChunkHeaderBytes = 8;

// ------------------------------------------------------ wire payloads ---
// All doubles travel as IEEE-754 bit patterns (WireWriter::put_double), so
// every numeric input to score_candidate reaches the worker exactly — the
// precondition for the byte-identical assembled panel.

struct ReplayInitMsg {
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  std::int64_t horizon = 0;
  std::string family;  ///< exp::family_token of the graph family.
  std::uint64_t num_arms = 0;
  double edge_probability = 0.0;
  std::uint64_t family_param = 0;
  std::uint64_t graph_seed = 0;
  double model_arm_average = 0.0;
  std::vector<double> arm_model;
  std::uint32_t chunks = 0;        ///< ReplayEvents frames to expect.
  std::uint64_t total_records = 0; ///< Sum of chunk record counts.
};

std::string encode_replay_init(const ReplayInitMsg& msg) {
  WireWriter out;
  out.put_double(msg.epsilon);
  out.put_u64(msg.seed);
  out.put_u64(static_cast<std::uint64_t>(msg.horizon));
  out.put_string(msg.family);
  out.put_u64(msg.num_arms);
  out.put_double(msg.edge_probability);
  out.put_u64(msg.family_param);
  out.put_u64(msg.graph_seed);
  out.put_double(msg.model_arm_average);
  out.put_u64(msg.arm_model.size());
  for (double value : msg.arm_model) out.put_double(value);
  out.put_u32(msg.chunks);
  out.put_u64(msg.total_records);
  return out.take();
}

ReplayInitMsg decode_replay_init(const std::string& payload) {
  WireReader in(payload);
  ReplayInitMsg msg;
  msg.epsilon = in.get_double();
  msg.seed = in.get_u64();
  msg.horizon = static_cast<std::int64_t>(in.get_u64());
  msg.family = in.get_string();
  msg.num_arms = in.get_u64();
  msg.edge_probability = in.get_double();
  msg.family_param = in.get_u64();
  msg.graph_seed = in.get_u64();
  msg.model_arm_average = in.get_double();
  const std::uint64_t arms = in.get_u64();
  in.check_count(arms, 8, "arm model");
  msg.arm_model.reserve(arms);
  for (std::uint64_t i = 0; i < arms; ++i) {
    msg.arm_model.push_back(in.get_double());
  }
  msg.chunks = in.get_u32();
  msg.total_records = in.get_u64();
  in.finish();
  return msg;
}

/// Splits the record stream into ReplayEvents payloads of roughly
/// kChunkBytes each, preserving stream order across chunk boundaries.
/// Layout: u32 chunk_index | u32 count | count records, byte-for-byte as
/// the event log file stores them.
std::vector<std::string> encode_event_chunks(
    const std::vector<serve::EventRecord>& records) {
  std::vector<std::string> chunks;
  std::string body;  // reused, so its growth slack is paid once
  std::size_t at = 0;
  while (at < records.size() || chunks.empty()) {
    body.clear();
    std::uint32_t count = 0;
    while (at < records.size() && body.size() < kChunkBytes) {
      serve::append_event_record(body, records[at++]);
      ++count;
    }
    WireWriter payload;
    payload.put_u32(static_cast<std::uint32_t>(chunks.size()));
    payload.put_u32(count);
    // Sized exactly: every chunk is held for the whole run.
    chunks.push_back(payload.take() + body);
  }
  return chunks;
}

/// Appends one chunk's records to `records`. Unlike the file reader, which
/// tolerates a torn tail, a chunk must carry exactly its announced records.
void decode_event_chunk(const std::string& payload,
                        std::uint32_t expected_index,
                        std::vector<serve::EventRecord>& records) {
  WireReader in(payload);
  const std::uint32_t index = in.get_u32();
  if (index != expected_index) {
    throw std::invalid_argument(
        "replay events: chunk " + std::to_string(index) + " arrived where " +
        std::to_string(expected_index) + " was expected");
  }
  const std::uint32_t count = in.get_u32();
  const std::size_t before = records.size();
  const std::string_view body =
      std::string_view(payload).substr(kChunkHeaderBytes);
  const std::size_t valid = serve::scan_event_records(body, records);
  if (valid != body.size() || records.size() - before != count) {
    throw std::invalid_argument(
        "replay events: chunk " + std::to_string(index) + " announced " +
        std::to_string(count) + " records but carries " +
        std::to_string(records.size() - before) + " complete ones and " +
        std::to_string(body.size() - valid) + " torn bytes");
  }
}

struct ReplayAssignMsg {
  std::uint32_t index = 0;    ///< Candidate index in the panel order.
  std::uint32_t attempt = 1;  ///< 1-based; > 1 means crash-requeued.
  std::string spec;
};

std::string encode_replay_assign(const ReplayAssignMsg& msg) {
  WireWriter out;
  out.put_u32(msg.index);
  out.put_u32(msg.attempt);
  out.put_string(msg.spec);
  return out.take();
}

ReplayAssignMsg decode_replay_assign(const std::string& payload) {
  WireReader in(payload);
  ReplayAssignMsg msg;
  msg.index = in.get_u32();
  msg.attempt = in.get_u32();
  msg.spec = in.get_string();
  in.finish();
  return msg;
}

void put_stat(WireWriter& out, const RunningStat& stat) {
  out.put_u64(stat.count());
  out.put_double(stat.mean());
  out.put_double(stat.m2());
  out.put_double(stat.min());
  out.put_double(stat.max());
}

RunningStat get_stat(WireReader& in) {
  const std::uint64_t count = in.get_u64();
  const double mean = in.get_double();
  const double m2 = in.get_double();
  const double min = in.get_double();
  const double max = in.get_double();
  return RunningStat::restore(static_cast<std::size_t>(count), mean, m2, min,
                              max);
}

struct ReplayResultMsg {
  std::uint32_t index = 0;
  CandidateSummary summary;  ///< Raw state only; display fields unset.
};

std::string encode_replay_result(const ReplayResultMsg& msg) {
  WireWriter out;
  out.put_u32(msg.index);
  out.put_string(msg.summary.spec);
  out.put_string(msg.summary.description);
  out.put_u64(msg.summary.decisions);
  out.put_u64(msg.summary.matched);
  put_stat(out, msg.summary.ips_stat);
  put_stat(out, msg.summary.dr_stat);
  out.put_double(msg.summary.weight_sum);
  out.put_double(msg.summary.weight_sq_sum);
  out.put_double(msg.summary.weighted_reward_sum);
  out.put_double(msg.summary.max_weight);
  return out.take();
}

ReplayResultMsg decode_replay_result(const std::string& payload) {
  WireReader in(payload);
  ReplayResultMsg msg;
  msg.index = in.get_u32();
  msg.summary.spec = in.get_string();
  msg.summary.description = in.get_string();
  msg.summary.decisions = in.get_u64();
  msg.summary.matched = in.get_u64();
  msg.summary.ips_stat = get_stat(in);
  msg.summary.dr_stat = get_stat(in);
  msg.summary.weight_sum = in.get_double();
  msg.summary.weight_sq_sum = in.get_double();
  msg.summary.weighted_reward_sum = in.get_double();
  msg.summary.max_weight = in.get_double();
  in.finish();
  return msg;
}

/// Receives the panel context and the record stream, then scores
/// candidates through the exact score_candidate path the local panel uses.
class ReplayCandidateHandler final : public dist::AssignmentHandler {
 public:
  [[nodiscard]] MsgType expects() const override {
    if (!init_) return MsgType::kReplayInit;
    if (chunks_seen_ < init_->chunks) return MsgType::kReplayEvents;
    return MsgType::kReplayAssign;
  }

  [[nodiscard]] std::optional<Frame> handle(const Frame& frame,
                                            std::string& key) override {
    if (frame.type == MsgType::kReplayAssign) return score(frame, key);
    if (frame.type == MsgType::kReplayInit) {
      init_ = decode_replay_init(frame.payload);
      // Reserve the announced stream only if the announced chunks could
      // carry it (no overflow: chunks < 2^32, records per chunk < 2^20).
      if (init_->total_records > std::uint64_t{init_->chunks} *
                                     (dist::kMaxFramePayload /
                                      serve::kMinEventRecordBytes)) {
        throw std::invalid_argument(
            "replay init: " + std::to_string(init_->total_records) +
            " records cannot fit in " + std::to_string(init_->chunks) +
            " chunks");
      }
      records_.reserve(static_cast<std::size_t>(init_->total_records));
    } else {
      decode_event_chunk(frame.payload, chunks_seen_++, records_);
    }
    if (chunks_seen_ == init_->chunks) start_scoring();
    return std::nullopt;
  }

 private:
  void start_scoring() {
    if (records_.size() != init_->total_records) {
      throw std::runtime_error(
          "received " + std::to_string(records_.size()) +
          " records, coordinator announced " +
          std::to_string(init_->total_records));
    }
    ExperimentConfig config;
    config.graph_family = exp::parse_family(init_->family);
    config.num_arms = static_cast<std::size_t>(init_->num_arms);
    config.edge_probability = init_->edge_probability;
    config.family_param = static_cast<std::size_t>(init_->family_param);
    config.seed = init_->graph_seed;
    graph_.emplace(build_graph(config));
    options_.epsilon = init_->epsilon;
    options_.seed = init_->seed;
    options_.horizon = static_cast<TimeSlot>(init_->horizon);
  }

  [[nodiscard]] Frame score(const Frame& frame, std::string& key) {
    const ReplayAssignMsg assign = decode_replay_assign(frame.payload);
    key = assign.spec;
    // See the crash-injection note in dispatch.hpp.
    const char* kill_spec = std::getenv("NCB_REPLAY_KILL_SPEC");
    if (kill_spec != nullptr && assign.attempt == 1 && key == kill_spec) {
      ::raise(SIGKILL);
    }
    ReplayResultMsg result;
    result.index = assign.index;
    result.summary =
        score_candidate(*graph_, records_, assign.spec, options_,
                        init_->arm_model, init_->model_arm_average);
    return Frame{MsgType::kReplayResult, encode_replay_result(result)};
  }

  std::optional<ReplayInitMsg> init_;
  std::uint32_t chunks_seen_ = 0;
  std::vector<serve::EventRecord> records_;
  std::optional<Graph> graph_;
  ReplayOptions options_;
};

}  // namespace

int run_replay_worker(const ReplayWorkerOptions& options) {
  ReplayCandidateHandler handler;
  return dist::run_assignment_loop(options.fd, kReplayWireSchema,
                                   options.threads, "ncb_replay worker",
                                   handler);
}

DistPanelSummary run_distributed_panel(const Graph& graph,
                                       const serve::EventLogScan& scan,
                                       const std::vector<std::string>& specs,
                                       const ReplayOptions& options,
                                       const ReplayDispatchOptions& dispatch) {
  if (dispatch.graph_config == nullptr) {
    throw std::invalid_argument("run_distributed_panel: no graph config");
  }
  // Identical front-door validation to replay_panel.
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    throw std::invalid_argument("replay: epsilon must be in [0, 1]");
  }
  for (const std::string& spec : specs) {
    PolicyRegistry::instance().check_single_play(spec);
  }

  DistPanelSummary summary;
  summary.panel = panel_base(graph, scan);
  if (specs.empty()) return summary;

  // The per-worker preamble, encoded once: every admitted (and
  // readmitted) worker gets the same bytes.
  std::vector<std::string> chunks = encode_event_chunks(scan.records);
  ReplayInitMsg init;
  init.epsilon = options.epsilon;
  init.seed = options.seed;
  init.horizon = options.horizon;
  init.family = exp::family_token(dispatch.graph_config->graph_family);
  init.num_arms = dispatch.graph_config->num_arms;
  init.edge_probability = dispatch.graph_config->edge_probability;
  init.family_param = dispatch.graph_config->family_param;
  init.graph_seed = dispatch.graph_config->seed;
  init.model_arm_average = summary.panel.model_arm_average;
  init.arm_model = summary.panel.arm_model;
  init.chunks = static_cast<std::uint32_t>(chunks.size());
  init.total_records = scan.records.size();

  net::TaskKind kind;
  kind.noun = "candidate";
  kind.schema = kReplayWireSchema;
  kind.metrics_prefix = "replay.candidates";
  kind.assign_type = MsgType::kReplayAssign;
  kind.result_type = MsgType::kReplayResult;
  kind.preamble.push_back({MsgType::kReplayInit, encode_replay_init(init)});
  for (std::string& chunk : chunks) {
    kind.preamble.push_back({MsgType::kReplayEvents, std::move(chunk)});
  }
  kind.encode = [](const net::FarmTask& task, std::uint32_t attempt) {
    ReplayAssignMsg assign;
    assign.index = static_cast<std::uint32_t>(task.id);
    assign.attempt = attempt;
    assign.spec = task.name;
    return encode_replay_assign(assign);
  };
  std::vector<CandidateSummary> done(specs.size());
  kind.file_result = [&done](const net::FarmTask& task, std::uint32_t,
                             const std::string& payload,
                             const net::PoolWorker&) {
    ReplayResultMsg result = decode_replay_result(payload);
    if (result.index != task.id || result.summary.spec != task.name) {
      return false;
    }
    done[task.id] = std::move(result.summary);
    return true;
  };

  std::vector<net::FarmTask> tasks;
  for (std::size_t i = 0; i < specs.size(); ++i) tasks.push_back({i, specs[i]});
  net::FarmOptions farm;
  farm.transport = dispatch.transport;
  farm.workers = dispatch.workers;
  net::FarmSummary run = net::run_task_farm(tasks, kind, farm);
  summary.requeues = run.requeues;
  summary.workers = std::move(run.workers);

  // Exact reduction: merge each worker's raw Welford state into an empty
  // accumulator (a bitwise copy — candidates arrive whole, so the merge's
  // exact-copy branch is the one taken), then derive the display figures
  // through the same finalize_candidate the local panel uses.
  summary.panel.candidates.reserve(specs.size());
  for (CandidateSummary& candidate : done) {
    RunningStat ips;
    ips.merge(candidate.ips_stat);
    candidate.ips_stat = ips;
    RunningStat dr;
    dr.merge(candidate.dr_stat);
    candidate.dr_stat = dr;
    finalize_candidate(candidate);
    summary.panel.candidates.push_back(std::move(candidate));
  }
  return summary;
}

}  // namespace ncb::replay
