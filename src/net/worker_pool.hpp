// Transport-agnostic worker-pool lifecycle for coordinators.
//
// A coordinator (sweep dispatch, distributed replay) wants exactly three
// things from its fleet: admitted workers to hand frames to, frames back
// from them, and a notification when one is lost so in-flight work can be
// requeued. WorkerPool owns everything in between — spawning or accepting
// peers via a StreamTransport, the handshake-gated admission state machine
// (Hello → WorkerInfo → HelloAck), per-worker byte accounting, and
// releasing peers on loss or shutdown. Its one client is the task farm
// (net/task_farm.hpp), which layers the scheduling on top.
//
// Admission is gated on a complete handshake: a connecting peer is not a
// worker until its Hello validates (magic, protocol version, application
// schema) AND it has identified itself with a WorkerInfo frame. Anything
// that dies, hangs up, or speaks the wrong schema before that point is
// dropped and counted against a bounded admission budget — on a TCP
// transport a port-scanner or a stale worker build cannot take down the
// run, but an endless stream of them cannot spin it forever either.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "wire/frame.hpp"

namespace ncb::net {

/// One peer the pool is tracking. The task farm stashes its scheduling
/// state in `user_tag` (the task in flight; -1 = idle) — the pool never
/// interprets it beyond "idle or not" for clean-release accounting.
struct PoolWorker {
  Peer peer;
  wire::FrameDecoder decoder;
  std::size_t id = 0;       ///< Stable admission-order id (display).
  std::string host;         ///< Self-reported hostname (WorkerInfo).
  std::uint64_t remote_pid = 0;
  std::uint64_t remote_threads = 0;
  bool hello_seen = false;
  bool admitted = false;
  bool shutdown_sent = false;
  std::ptrdiff_t user_tag = -1;
  std::size_t jobs_done = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double admitted_seconds = 0.0;  ///< Pool clock at admission.
  double released_seconds = 0.0;  ///< Pool clock at release (0 = live).
  bool lost = false;              ///< Released uncleanly.
  bool lost_in_flight = false;    ///< Lost while user_tag >= 0.
  // Per-worker registry gauges (dist.worker.<id>.*), resolved at admission
  // and refreshed every poll turn; null until the handshake completes.
  obs::Gauge* g_jobs_done = nullptr;
  obs::Gauge* g_bytes_in = nullptr;
  obs::Gauge* g_bytes_out = nullptr;
  obs::Gauge* g_uptime_ms = nullptr;
};

/// End-of-run per-worker accounting for the coordinator summary lines.
struct WorkerSummary {
  std::size_t id = 0;
  std::string where;
  std::string host;
  std::uint64_t remote_pid = 0;
  std::size_t jobs_done = 0;
  bool lost = false;
  bool lost_in_flight = false;
  double seconds = 0.0;  ///< Admission → release (or → now if live).
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class WorkerPool {
 public:
  struct Options {
    StreamTransport* transport = nullptr;
    /// Application schema word workers must present in their Hello.
    std::uint32_t expected_schema = 0;
    /// Peers may fail admission (die pre-handshake, bad Hello) at most
    /// this many times before poll_once throws — respawn-storm and
    /// junk-connection bound.
    std::size_t admission_budget = 8;
    /// Registry mirroring fleet health (dist.workers.*, dist.bytes.*,
    /// dist.worker.<id>.*); nullptr → obs::MetricsRegistry::global().
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Hooks {
    /// A worker completed the handshake and is ready for frames.
    std::function<void(PoolWorker&)> on_admitted;
    /// A post-admission frame arrived (anything but the handshake).
    std::function<void(PoolWorker&, const wire::Frame&)> on_frame;
    /// An admitted worker was lost uncleanly. Fired with `user_tag`
    /// still intact so the coordinator can requeue; the pool resets the
    /// tag afterwards.
    std::function<void(PoolWorker&)> on_lost;
  };

  WorkerPool(const Options& options, Hooks hooks);
  ~WorkerPool();

  /// Replaces the hooks — for callers whose hook lambdas need to capture
  /// the pool itself (construct with empty hooks, then install).
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] bool can_spawn() const { return transport_->can_spawn(); }
  /// Spawns `count` peers (process transport only).
  void spawn(std::size_t count);

  /// One reactor turn: accept pending connections, poll every live fd
  /// plus the listener, read and decode, advance handshakes, deliver
  /// frames, handle losses. Throws std::runtime_error when the admission
  /// budget is exhausted or a worker reports a malformed frame.
  void poll_once(int timeout_ms);

  /// Frame write with byte accounting; a failed write releases the worker
  /// through the loss path (so on_lost may fire reentrantly).
  void send(PoolWorker& worker, wire::MsgType type,
            const std::string& payload);
  /// Sends Shutdown once; the worker is released cleanly when its stream
  /// reaches EOF afterwards.
  void send_shutdown(PoolWorker& worker);

  /// Live (connected, possibly not yet admitted) worker count.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Every worker ever tracked, including released ones (stable refs).
  [[nodiscard]] std::deque<PoolWorker>& workers() noexcept {
    return workers_;
  }
  [[nodiscard]] const std::deque<PoolWorker>& workers() const noexcept {
    return workers_;
  }
  /// Per-worker accounting in admission order (admitted workers only).
  [[nodiscard]] std::vector<WorkerSummary> summaries() const;

 private:
  void admit_pending();
  void read_ready(PoolWorker& worker);
  void handle_handshake_frame(PoolWorker& worker, const wire::Frame& frame);
  void worker_released(PoolWorker& worker);
  void charge_admission_budget(const std::string& why);
  void update_worker_gauges(PoolWorker& worker);

  StreamTransport* transport_;
  Options options_;
  Hooks hooks_;
  std::deque<PoolWorker> workers_;  ///< Deque: references stay valid.
  Timer clock_;
  std::size_t live_ = 0;
  std::size_t next_id_ = 0;
  std::size_t admission_failures_ = 0;

  // Registry mirrors (resolved once in the constructor).
  obs::MetricsRegistry& registry_;
  obs::Counter& m_admitted_;
  obs::Counter& m_lost_;
  obs::Counter& m_rejected_;
  obs::Gauge& m_active_;
  obs::Counter& m_bytes_in_;
  obs::Counter& m_bytes_out_;
};

}  // namespace ncb::net
