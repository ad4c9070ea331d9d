// The task farm: one scheduler for every coordinator that hands a fixed
// set of tasks to a fleet of workers. Sweep dispatch (dist/coordinator)
// and sharded replay (replay/dispatch) are thin adapters over it — each
// supplies only its task encoding, its result placement and (replay) a
// per-worker preamble; every scheduling decision lives here:
//
//   Pull-based dispatch. The idle worker gets the next queued task, so
//     fast workers naturally take more of the set — work stealing without
//     a shared queue. The queue is in the order the caller gives (the
//     sweep sorts largest-first by its slot estimate, so on a
//     heterogeneous fleet the long poles start early and the stragglers
//     at the end are cheap).
//   Crash requeue. A worker lost with a task in flight (crash, SIGKILL,
//     dropped connection) puts the task back at the FRONT of the queue
//     with its original attempt counter; on a spawning transport a
//     replacement process is started. A task that loses its worker
//     kMaxAttempts times aborts the run — the crash is then the task's
//     fault, not a lost worker's.
//   Idle hold. With the queue empty but other tasks in flight, an idle
//     worker is kept, not shut down: a crash could requeue one of those
//     tasks, and this worker is where it would land. Only a drained run
//     (nothing queued, nothing in flight) sends Shutdown.
//   Fleet. A spawning transport starts min(workers, tasks) processes and
//     tops the fleet up to min(workers, queued + in flight) after losses;
//     on an accept transport the fleet is whoever connects. The admission
//     budget is workers + 2 when spawning (a worker binary that cannot
//     start is broken — give up after a respawn round) and 32 when
//     accepting (a noisy network gets a wider, still bounded, budget).
//   Stop. Once should_stop fires nothing new is assigned, idle workers
//     are released, in-flight tasks finish and are filed, and the rest
//     report as pending.
//
// Determinism is never entrusted to scheduling: both callers derive a
// task's bytes from the task alone (counter-based seeds from the job's
// spec coordinates; the shipped replay stream) and assemble output in
// their own canonical order, so where, when and on which attempt a task
// ran never shows — a crash-requeued run is byte-identical to an
// undisturbed one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"

namespace ncb::net {

/// A task that loses its worker this many times aborts the run.
inline constexpr std::uint32_t kMaxAttempts = 3;

/// One unit of work, in the order the farm should hand it out.
struct FarmTask {
  std::size_t id = 0;  ///< The caller's index (job, candidate slot).
  std::string name;    ///< Job key / candidate spec, for messages.
};

/// What one kind of work supplies to the farm.
struct TaskKind {
  std::string noun;            ///< "job", "candidate" — for messages.
  std::uint32_t schema = 0;    ///< Hello schema word workers present.
  /// Registry prefix: "<prefix>.queued" gauge, "<prefix>.requeued" counter.
  std::string metrics_prefix;
  dist::MsgType assign_type = dist::MsgType::kJobAssign;
  dist::MsgType result_type = dist::MsgType::kJobResult;
  /// Frames every worker receives on admission, before its first task.
  std::vector<dist::Frame> preamble;
  /// Assignment payload for `task` on `attempt` (1-based).
  std::function<std::string(const FarmTask& task, std::uint32_t attempt)>
      encode;
  /// Files one result payload for `task`. Returns false, filing nothing,
  /// when the payload answers a different task (the farm then aborts).
  std::function<bool(const FarmTask& task, std::uint32_t attempt,
                     const std::string& payload, const PoolWorker& worker)>
      file_result;
};

struct FarmOptions {
  StreamTransport* transport = nullptr;  ///< Required.
  /// Fleet size on a spawning transport; ignored on an accept transport.
  std::size_t workers = 2;
  /// Cooperative stop (e.g. a SIGINT flag); optional.
  std::function<bool()> should_stop;
};

struct FarmSummary {
  std::size_t requeues = 0;  ///< Crash-requeued assignments.
  std::size_t pending = 0;   ///< Tasks left unfinished by should_stop.
  bool interrupted = false;  ///< should_stop fired.
  /// Per-worker accounting (tasks, bytes, wall time) in admission order.
  std::vector<WorkerSummary> workers;
};

/// Runs `tasks` across the fleet until each is filed (or should_stop
/// drains the run). Throws std::runtime_error when a worker reports a
/// WorkerError, sends an unexpected frame or a result for another task, a
/// task exhausts kMaxAttempts, or admission fails past its budget; every
/// worker is released before the throw.
[[nodiscard]] FarmSummary run_task_farm(const std::vector<FarmTask>& tasks,
                                        const TaskKind& kind,
                                        const FarmOptions& options);

}  // namespace ncb::net
