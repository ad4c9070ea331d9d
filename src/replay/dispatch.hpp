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

/// Distributed replay_panel: identical validation, pass 1 local, one
/// candidate per worker assignment, byte-identical assembled panel.
/// Throws std::runtime_error when a worker reports a candidate error or a
/// candidate exhausts net::kMaxAttempts.
[[nodiscard]] DistPanelSummary run_distributed_panel(
    const Graph& graph, const serve::EventLogScan& scan,
    const std::vector<std::string>& specs, const ReplayOptions& options,
    const ReplayDispatchOptions& dispatch);

}  // namespace ncb::replay
