#include "dist/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <thread>

#include "exp/emitters.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/thread_pool.hpp"

namespace ncb::dist {

namespace {

/// Worker side of the admission handshake: sends Hello, then the
/// WorkerInfo identity frame (hostname, pid, resolved thread count), then
/// waits for HelloAck. Returns 0 when admitted, 1 when the coordinator
/// vanished before admission (a clean no-work exit), 2 on a version or
/// protocol mismatch.
int worker_handshake(int fd, std::uint32_t schema, std::size_t threads,
                     const std::string& who) {
  HelloMsg hello;
  hello.schema = schema;
  WorkerInfoMsg info;
  char hostname[256] = {0};
  if (::gethostname(hostname, sizeof hostname - 1) == 0) info.host = hostname;
  info.pid = static_cast<std::uint64_t>(::getpid());
  info.threads = threads != 0
                     ? threads
                     : std::max(1u, std::thread::hardware_concurrency());
  try {
    write_frame(fd, MsgType::kHello, encode_hello(hello));
    write_frame(fd, MsgType::kWorkerInfo, encode_worker_info(info));
    const std::optional<Frame> ack = read_frame(fd);
    if (!ack) return 1;  // coordinator vanished before the handshake
    if (ack->type != MsgType::kHelloAck) {
      std::cerr << who << ": expected HelloAck, got "
                << frame_type_name(ack->type) << '\n';
      return 2;
    }
    decode_hello_ack(ack->payload);
  } catch (const PeerClosedError&) {
    return 1;  // coordinator vanished mid-handshake — nothing was lost
  } catch (const std::exception& e) {
    std::cerr << who << ": handshake failed: " << e.what() << '\n';
    return 2;
  }
  return 0;
}

class SweepJobHandler final : public AssignmentHandler {
 public:
  explicit SweepJobHandler(std::size_t threads) : pool_(threads) {}

  [[nodiscard]] MsgType expects() const override {
    return MsgType::kJobAssign;
  }

  [[nodiscard]] std::optional<Frame> handle(const Frame& frame,
                                            std::string& key) override {
    const JobAssignMsg assign = decode_job_assign(frame.payload);
    key = assign.job.key;
    // See the crash-injection note in worker.hpp.
    const char* kill_key = std::getenv("NCB_DIST_KILL_KEY");
    if (kill_key != nullptr && assign.attempt == 1 && key == kill_key) {
      ::raise(SIGKILL);
    }

    exp::SweepRunOptions run_options;
    run_options.pool = &pool_;
    run_options.shard_size = static_cast<std::size_t>(assign.shard_size);
    run_options.instance_cache = &cache_;
    const exp::JobOutcome outcome = exp::run_sweep_job(
        assign.job, static_cast<std::size_t>(assign.checkpoints), run_options);

    JobResultMsg result;
    result.key = key;
    result.record_line = exp::render_job_json(
        exp::JobRecord::from(outcome.job, outcome.aggregate));
    result.seconds = outcome.seconds;
    result.shards = outcome.shards;
    result.shard_size = outcome.shard_size;
    return Frame{MsgType::kJobResult, encode_job_result(result)};
  }

 private:
  ThreadPool pool_;
  exp::InstanceCache cache_;  ///< Reused across this worker's assignments.
};

}  // namespace

int run_assignment_loop(int fd, std::uint32_t schema, std::size_t threads,
                        const std::string& who, AssignmentHandler& handler) {
  ::signal(SIGINT, SIG_IGN);  // the coordinator owns interrupt handling

  switch (worker_handshake(fd, schema, threads, who)) {
    case 0:
      break;
    case 1:
      return 0;
    default:
      return 2;
  }

  while (true) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(fd);
    } catch (const PeerClosedError&) {
      return 0;
    } catch (const std::exception& e) {
      std::cerr << who << ": read failed: " << e.what() << '\n';
      return 2;
    }
    if (!frame || frame->type == MsgType::kShutdown) return 0;
    if (frame->type != handler.expects()) {
      std::cerr << who << ": expected " << frame_type_name(handler.expects())
                << ", got " << frame_type_name(frame->type) << '\n';
      return 2;
    }

    std::string key;
    std::string error;
    try {
      const std::optional<Frame> reply = handler.handle(*frame, key);
      if (reply) write_frame(fd, reply->type, reply->payload);
      continue;
    } catch (const PeerClosedError&) {
      return 0;  // coordinator gone; it will requeue the task elsewhere
    } catch (const std::exception& e) {
      error = e.what();
    }

    // A failed task (unknown policy, bad config, ...) is fatal for the
    // whole run — report it so the coordinator aborts with the real
    // message instead of requeueing a task that can never succeed.
    try {
      WorkerErrorMsg report;
      report.key = key;
      report.message = error;
      write_frame(fd, MsgType::kWorkerError, encode_worker_error(report));
    } catch (const std::exception&) {
      // Coordinator already gone; the exit code still says "error".
    }
    return 1;
  }
}

int run_worker(const WorkerOptions& options) {
  SweepJobHandler handler(options.threads);
  return run_assignment_loop(
      options.fd, static_cast<std::uint32_t>(exp::kSweepSchemaVersion),
      options.threads, "ncb_sweep worker", handler);
}

}  // namespace ncb::dist
