#include "net/task_farm.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace ncb::net {

namespace {

class Farm {
 public:
  Farm(const std::vector<FarmTask>& tasks, const TaskKind& kind,
       const FarmOptions& options)
      : tasks_(tasks), kind_(kind), options_(options),
        attempts_(tasks.size(), 0),
        queue_(tasks.size()),
        m_queued_(obs::MetricsRegistry::global().gauge(kind.metrics_prefix +
                                                       ".queued")),
        m_requeued_(obs::MetricsRegistry::global().counter(
            kind.metrics_prefix + ".requeued")),
        pool_(pool_options(),
              {[this](PoolWorker& worker) { admitted(worker); },
               [this](PoolWorker& worker, const wire::Frame& frame) {
                 handle_frame(worker, frame);
               },
               [this](PoolWorker& worker) { lost(worker); }}) {
    for (std::size_t i = 0; i < queue_.size(); ++i) queue_[i] = i;
    m_queued_.set(static_cast<std::int64_t>(queue_.size()));
  }

  FarmSummary run() {
    FarmSummary summary;
    if (queue_.empty()) return summary;
    if (pool_.can_spawn()) {
      pool_.spawn(
          std::max<std::size_t>(1, std::min(options_.workers, queue_.size())));
    }
    // Run until the fleet drains: on a spawning transport workers exist
    // from the start; on an accept transport the queue holds the loop open
    // while the first worker is still dialing in.
    while (pool_.live() > 0 ||
           (!stopping_ && (!queue_.empty() || in_flight() > 0))) {
      if (!stopping_ && options_.should_stop && options_.should_stop()) {
        stopping_ = true;
      }
      // A requeue, a late admission or a stop may leave an idle worker
      // next to queued work, or with nothing left to do — settle each one
      // every turn.
      for (PoolWorker& worker : pool_.workers()) dispatch(worker);
      pool_.poll_once(200);
      maintain_fleet();
    }
    summary.requeues = requeues_;
    summary.pending = queue_.size();
    summary.interrupted = stopping_;
    summary.workers = pool_.summaries();
    return summary;
  }

 private:
  [[nodiscard]] WorkerPool::Options pool_options() const {
    if (options_.transport == nullptr) {
      throw std::invalid_argument("run_task_farm: no transport");
    }
    WorkerPool::Options opts;
    opts.transport = options_.transport;
    opts.expected_schema = kind_.schema;
    opts.admission_budget =
        options_.transport->can_spawn() ? options_.workers + 2 : 32;
    return opts;
  }

  [[nodiscard]] std::size_t in_flight() const {
    std::size_t n = 0;
    for (const PoolWorker& worker : pool_.workers()) {
      if (worker.peer.fd >= 0 && worker.user_tag >= 0) ++n;
    }
    return n;
  }

  void admitted(PoolWorker& worker) {
    for (const wire::Frame& frame : kind_.preamble) {
      if (worker.peer.fd < 0) return;  // a failed send released it
      pool_.send(worker, frame.type, frame.payload);
    }
    dispatch(worker);
  }

  /// Hands the next queued task to an idle, admitted worker — or a
  /// Shutdown when there is nothing left for it to do.
  void dispatch(PoolWorker& worker) {
    if (worker.peer.fd < 0 || !worker.admitted || worker.user_tag >= 0 ||
        worker.shutdown_sent) {
      return;
    }
    if (stopping_ || (queue_.empty() && in_flight() == 0)) {
      pool_.send_shutdown(worker);
      return;
    }
    if (queue_.empty()) return;  // idle hold (see the header)
    const std::size_t slot = queue_.front();
    queue_.pop_front();
    m_queued_.set(static_cast<std::int64_t>(queue_.size()));
    worker.user_tag = static_cast<std::ptrdiff_t>(slot);
    // A failed send releases the worker, which requeues via lost().
    pool_.send(worker, kind_.assign_type,
               kind_.encode(tasks_[slot], attempts_[slot] + 1));
  }

  void lost(PoolWorker& worker) {
    if (worker.user_tag < 0) return;
    const std::size_t slot = static_cast<std::size_t>(worker.user_tag);
    ++attempts_[slot];
    if (!stopping_ && attempts_[slot] >= kMaxAttempts) {
      throw std::runtime_error(kind_.noun + " '" + tasks_[slot].name +
                               "' crashed its worker " +
                               std::to_string(attempts_[slot]) +
                               " times — aborting");
    }
    queue_.push_front(slot);
    m_queued_.set(static_cast<std::int64_t>(queue_.size()));
    if (!stopping_) {
      ++requeues_;
      m_requeued_.inc();
    }
  }

  void maintain_fleet() {
    if (stopping_ || !pool_.can_spawn()) return;
    const std::size_t wanted =
        std::min(options_.workers, queue_.size() + in_flight());
    while (pool_.live() < wanted) pool_.spawn(1);
  }

  void handle_frame(PoolWorker& worker, const wire::Frame& frame) {
    if (frame.type == kind_.result_type) {
      if (worker.user_tag < 0) {
        throw std::runtime_error("protocol violation: a " + kind_.noun +
                                 " result from a worker with no assignment");
      }
      const std::size_t slot = static_cast<std::size_t>(worker.user_tag);
      if (!kind_.file_result(tasks_[slot], attempts_[slot] + 1,
                             frame.payload, worker)) {
        throw std::runtime_error(
            "protocol violation: result does not match the worker's "
            "assignment (" + kind_.noun + " '" + tasks_[slot].name + "')");
      }
      worker.user_tag = -1;
      ++worker.jobs_done;
      dispatch(worker);
      return;
    }
    if (frame.type == wire::MsgType::kWorkerError) {
      const wire::WorkerErrorMsg error =
          wire::decode_worker_error(frame.payload);
      throw std::runtime_error("worker failed on " + kind_.noun + " '" +
                               error.key + "': " + error.message);
    }
    throw std::runtime_error(
        "protocol violation: unexpected frame type " +
        wire::frame_type_label(static_cast<std::uint8_t>(frame.type)) +
        " from a worker");
  }

  const std::vector<FarmTask>& tasks_;
  const TaskKind& kind_;
  const FarmOptions& options_;
  std::vector<std::uint32_t> attempts_;  ///< Losses so far, per task.
  std::deque<std::size_t> queue_;        ///< Indices into tasks_.
  std::size_t requeues_ = 0;
  bool stopping_ = false;
  obs::Gauge& m_queued_;
  obs::Counter& m_requeued_;
  // Last member: its destructor (which releases every peer) runs first on
  // any exit path, including the throws above.
  WorkerPool pool_;
};

}  // namespace

FarmSummary run_task_farm(const std::vector<FarmTask>& tasks,
                          const TaskKind& kind, const FarmOptions& options) {
  Farm farm(tasks, kind, options);
  return farm.run();
}

}  // namespace ncb::net
