// The worker end of the dispatch protocol. One assignment loop serves
// every worker kind (sweep jobs here, replay candidates in
// replay/dispatch): it owns the handshake, the clean exit on Shutdown or
// coordinator EOF, the unexpected-frame exit and the WorkerError report;
// a kind supplies an AssignmentHandler that turns frames into replies.
// The loop only ever sees a connected stream fd, so it runs unchanged
// over a socketpair or a TCP connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "dist/protocol.hpp"

namespace ncb::dist {

/// One worker kind's half of the assignment protocol.
class AssignmentHandler {
 public:
  virtual ~AssignmentHandler() = default;
  /// The frame type this handler accepts next. Any other frame (Shutdown
  /// aside) ends the loop with exit 2.
  [[nodiscard]] virtual MsgType expects() const = 0;
  /// Handles one frame of type expects(): returns the reply to send, or
  /// nullopt when the frame needs none (a setup frame). Sets `key` to the
  /// task the frame names as soon as it is decoded, so that an exception
  /// is reported to the coordinator against that task.
  [[nodiscard]] virtual std::optional<Frame> handle(const Frame& frame,
                                                    std::string& key) = 0;
};

/// Runs one worker until Shutdown or coordinator EOF: the admission
/// handshake (Hello carrying `schema`, WorkerInfo reporting `threads`,
/// then HelloAck), then frames through `handler`. Returns a process exit
/// code: 0 on a clean drain (a vanished coordinator — EOF or
/// PeerClosedError — included), 2 on a handshake failure, read failure or
/// unexpected frame, 1 after reporting a handler exception as a
/// WorkerError. Diagnostics go to stderr prefixed with `who`.
///
/// SIGINT is ignored: a ^C lands on the whole foreground process group,
/// and the coordinator (which did not ignore it) drives the graceful
/// stop — workers finish their in-flight task, deliver it, and get a
/// Shutdown.
[[nodiscard]] int run_assignment_loop(int fd, std::uint32_t schema,
                                      std::size_t threads,
                                      const std::string& who,
                                      AssignmentHandler& handler);

struct WorkerOptions {
  int fd = -1;            ///< Connected stream to the coordinator.
  std::size_t threads = 0;  ///< Shard pool size (0 = hardware concurrency).
};

/// The sweep worker: runs each assigned SweepJob through the in-process
/// sweep engine and ships the rendered record back, on
/// run_assignment_loop's exit codes.
///
/// Crash injection (tests/CI only): when the environment variable
/// NCB_DIST_KILL_KEY equals the assigned job's key and the assignment is the
/// job's first attempt, the worker raises SIGKILL instead of running it —
/// a deterministic stand-in for a worker lost mid-job, exercising the
/// coordinator's requeue path.
[[nodiscard]] int run_worker(const WorkerOptions& options);

}  // namespace ncb::dist
