// Distributed replay: a thin adapter that runs a candidate panel on the
// task farm (net/task_farm.hpp) — sharded by candidate, because a
// candidate's replay state is sequential while candidates never interact
// — with pass 1 run locally once, the record stream shipped to every
// worker as a preamble of event-log slices, and raw Welford state merged
// back exactly, so the assembled panel is byte-identical to `--workers 0`
// for any worker count, transport or mid-run crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "net/task_farm.hpp"
#include "net/transport.hpp"
#include "replay/replay.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"

namespace ncb::replay {

/// Replay wire schema (the Hello schema word of a replay worker). Bump
/// when the ReplayInit/Events/Assign/Result payloads change.
/// v2: ReplayEvents chunks carry event-log records verbatim.
inline constexpr std::uint32_t kReplayWireSchema = 2;

// ------------------------------------------------------ wire payloads ---
// The replay payloads a coordinator and its workers exchange. All doubles
// travel as IEEE-754 bit patterns (WireWriter::put_double), so every
// numeric input to score_candidate reaches the worker exactly: the
// precondition for the byte-identical assembled panel. Every decoder
// throws std::invalid_argument on malformed bytes.

/// The panel context a worker needs before any candidate.
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
[[nodiscard]] std::string encode_replay_init(const ReplayInitMsg& msg);
[[nodiscard]] ReplayInitMsg decode_replay_init(const std::string& payload);

/// Splits the record stream into ReplayEvents payloads of about 1 MiB
/// each, preserving stream order across chunk boundaries. Layout: u32
/// chunk_index | u32 count | count records, byte-for-byte as the event log
/// file stores them. An empty stream still yields one (empty) chunk.
[[nodiscard]] std::vector<std::string> encode_event_chunks(
    const std::vector<serve::EventRecord>& records);

/// Appends one chunk's records to `records`. Unlike the file reader, which
/// tolerates a torn tail, a chunk must carry exactly its announced records
/// and be chunk number `expected_index`.
void decode_event_chunk(const std::string& payload,
                        std::uint32_t expected_index,
                        std::vector<serve::EventRecord>& records);

/// One candidate for a worker to score.
struct ReplayAssignMsg {
  std::uint32_t index = 0;    ///< Candidate index in the panel order.
  std::uint32_t attempt = 1;  ///< 1-based; > 1 means crash-requeued.
  std::string spec;
};
[[nodiscard]] std::string encode_replay_assign(const ReplayAssignMsg& msg);
[[nodiscard]] ReplayAssignMsg decode_replay_assign(const std::string& payload);

/// One scored candidate's raw accumulator state.
struct ReplayResultMsg {
  std::uint32_t index = 0;
  CandidateSummary summary;  ///< Raw state only; display fields unset.
};
[[nodiscard]] std::string encode_replay_result(const ReplayResultMsg& msg);
[[nodiscard]] ReplayResultMsg decode_replay_result(const std::string& payload);

struct ReplayWorkerOptions {
  int fd = -1;              ///< Connected stream to the coordinator.
  std::size_t threads = 0;  ///< Reported in WorkerInfo (display only).
};

/// The replay worker: receives the panel context (ReplayInit) and the
/// event stream (ReplayEvents chunks), then scores assigned candidates
/// through the exact score_candidate path the local panel uses and ships
/// back raw accumulator state, on dist::run_assignment_loop's exit codes.
///
/// Crash injection (tests/CI only): when the environment variable
/// NCB_REPLAY_KILL_SPEC equals the assigned candidate spec and the
/// assignment is its first attempt, the worker raises SIGKILL — the
/// deterministic stand-in for a worker lost mid-candidate.
[[nodiscard]] int run_replay_worker(const ReplayWorkerOptions& options);

struct ReplayDispatchOptions {
  /// Where worker streams come from (required).
  net::StreamTransport* transport = nullptr;
  /// Fleet size on a spawning transport (capped at the candidate count);
  /// ignored on an accept transport.
  std::size_t workers = 2;
  /// Graph construction parameters to ship (family/arms/edge-prob/
  /// family-param/seed are read; required).
  const ExperimentConfig* graph_config = nullptr;
};

struct DistPanelSummary {
  PanelResult panel;
  std::size_t requeues = 0;  ///< Crash-requeued candidate assignments.
  /// Per-worker accounting (candidates, bytes, wall time).
  std::vector<net::WorkerSummary> workers;
};

/// Distributed replay_panel: check_panel before any worker starts, pass 1
/// local, one candidate per worker assignment, byte-identical assembled
/// panel.
/// Throws std::runtime_error when a worker reports a candidate error or a
/// candidate exhausts net::kMaxAttempts.
[[nodiscard]] DistPanelSummary run_distributed_panel(
    const Graph& graph, const serve::EventLogScan& scan,
    const std::vector<std::string>& specs, const ReplayOptions& options,
    const ReplayDispatchOptions& dispatch);

}  // namespace ncb::replay
