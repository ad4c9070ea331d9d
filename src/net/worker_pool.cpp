#include "net/worker_pool.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ncb::net {

namespace {

/// Frame header bytes (u32 length + u8 type) for byte accounting.
constexpr std::uint64_t kFrameOverhead = 5;

obs::MetricsRegistry& pool_registry(const WorkerPool::Options& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

WorkerPool::WorkerPool(const Options& options, Hooks hooks)
    : transport_(options.transport), options_(options),
      hooks_(std::move(hooks)), registry_(pool_registry(options)),
      m_admitted_(registry_.counter("dist.workers.admitted")),
      m_lost_(registry_.counter("dist.workers.lost")),
      m_rejected_(registry_.counter("dist.workers.rejected")),
      m_active_(registry_.gauge("dist.workers.active")),
      m_bytes_in_(registry_.counter("dist.bytes.in")),
      m_bytes_out_(registry_.counter("dist.bytes.out")) {
  if (transport_ == nullptr) {
    throw std::invalid_argument("WorkerPool: null transport");
  }
}

WorkerPool::~WorkerPool() {
  for (PoolWorker& worker : workers_) {
    if (worker.peer.fd >= 0) {
      transport_->release_peer(worker.peer);
      --live_;
      if (worker.admitted) m_active_.add(-1);  // keep the gauge true
    }
  }
}

void WorkerPool::spawn(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    PoolWorker worker;
    worker.peer = transport_->spawn_peer();
    workers_.push_back(std::move(worker));
    ++live_;
  }
}

void WorkerPool::admit_pending() {
  for (Peer& peer : transport_->accept_ready()) {
    PoolWorker worker;
    worker.peer = std::move(peer);
    workers_.push_back(std::move(worker));
    ++live_;
  }
}

void WorkerPool::update_worker_gauges(PoolWorker& worker) {
  if (worker.g_jobs_done == nullptr) return;
  worker.g_jobs_done->set(static_cast<std::int64_t>(worker.jobs_done));
  worker.g_bytes_in->set(static_cast<std::int64_t>(worker.bytes_in));
  worker.g_bytes_out->set(static_cast<std::int64_t>(worker.bytes_out));
  const double end = worker.peer.fd >= 0 ? clock_.elapsed_seconds()
                                         : worker.released_seconds;
  worker.g_uptime_ms->set(
      static_cast<std::int64_t>((end - worker.admitted_seconds) * 1000.0));
}

void WorkerPool::charge_admission_budget(const std::string& why) {
  m_rejected_.inc();
  if (++admission_failures_ > options_.admission_budget) {
    throw std::runtime_error(
        "worker admission failed " + std::to_string(admission_failures_) +
        " times (budget " + std::to_string(options_.admission_budget) +
        ") — last: " + why);
  }
}

void WorkerPool::worker_released(PoolWorker& worker) {
  if (worker.peer.fd < 0) return;
  const std::string where = worker.peer.where;
  transport_->release_peer(worker.peer);
  --live_;
  worker.released_seconds = clock_.elapsed_seconds();
  if (worker.admitted) {
    m_active_.add(-1);
    update_worker_gauges(worker);  // freeze the final per-worker figures
  }

  const bool clean = worker.shutdown_sent && worker.user_tag < 0;
  if (clean) return;
  worker.lost = true;
  if (!worker.admitted) {
    charge_admission_budget("peer " + where +
                            " disconnected before completing the handshake");
    return;
  }
  m_lost_.inc();
  worker.lost_in_flight = worker.user_tag >= 0;
  if (hooks_.on_lost) hooks_.on_lost(worker);
  worker.user_tag = -1;
}

void WorkerPool::send(PoolWorker& worker, wire::MsgType type,
                      const std::string& payload) {
  if (worker.peer.fd < 0) return;
  try {
    wire::write_frame(worker.peer.fd, type, payload);
    worker.bytes_out += kFrameOverhead + payload.size();
    m_bytes_out_.inc(kFrameOverhead + payload.size());
  } catch (const std::exception&) {
    worker_released(worker);
  }
}

void WorkerPool::send_shutdown(PoolWorker& worker) {
  if (worker.shutdown_sent || worker.peer.fd < 0) return;
  worker.shutdown_sent = true;
  send(worker, wire::MsgType::kShutdown, "");
}

void WorkerPool::handle_handshake_frame(PoolWorker& worker,
                                        const wire::Frame& frame) {
  // Pre-admission misbehavior is fatal on a spawn transport (our own
  // binary speaking the wrong schema means a build mismatch — say so) but
  // merely disqualifying on an accept transport (anything can dial a TCP
  // port; drop it and charge the budget).
  const bool accept_based = transport_->listen_fd() >= 0;
  std::string reject;
  if (!worker.hello_seen) {
    if (frame.type == wire::MsgType::kHello) {
      const wire::HelloMsg hello = wire::decode_hello(frame.payload);
      const auto mismatch =
          wire::validate_hello(hello, options_.expected_schema);
      if (!mismatch) {
        worker.hello_seen = true;
        return;
      }
      reject = *mismatch;
    } else {
      reject = "expected Hello, got " +
               std::string(wire::frame_type_name(frame.type));
    }
  } else {
    if (frame.type == wire::MsgType::kWorkerInfo) {
      const wire::WorkerInfoMsg info = wire::decode_worker_info(frame.payload);
      worker.host = info.host;
      worker.remote_pid = info.pid;
      worker.remote_threads = info.threads;
      send(worker, wire::MsgType::kHelloAck, wire::encode_hello_ack());
      if (worker.peer.fd < 0) return;  // ack write failed → released
      worker.id = next_id_++;
      worker.admitted = true;
      worker.admitted_seconds = clock_.elapsed_seconds();
      m_admitted_.inc();
      m_active_.add(1);
      const std::string prefix =
          "dist.worker." + std::to_string(worker.id) + ".";
      worker.g_jobs_done = &registry_.gauge(prefix + "jobs_done");
      worker.g_bytes_in = &registry_.gauge(prefix + "bytes_in");
      worker.g_bytes_out = &registry_.gauge(prefix + "bytes_out");
      worker.g_uptime_ms = &registry_.gauge(prefix + "uptime_ms");
      update_worker_gauges(worker);
      if (hooks_.on_admitted) hooks_.on_admitted(worker);
      return;
    }
    reject = "expected WorkerInfo, got " +
             std::string(wire::frame_type_name(frame.type));
  }

  if (!accept_based) throw std::runtime_error(reject);
  const std::string where = worker.peer.where;
  worker.shutdown_sent = true;  // suppress the loss path's budget charge
  worker.lost = true;
  transport_->release_peer(worker.peer);
  --live_;
  worker.released_seconds = clock_.elapsed_seconds();
  charge_admission_budget("peer " + where + " rejected: " + reject);
}

void WorkerPool::read_ready(PoolWorker& worker) {
  char buf[65536];
  const ssize_t n = ::read(worker.peer.fd, buf, sizeof buf);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    worker_released(worker);
    return;
  }
  if (n == 0) {
    worker_released(worker);
    return;
  }
  worker.bytes_in += static_cast<std::uint64_t>(n);
  m_bytes_in_.inc(static_cast<std::uint64_t>(n));
  try {
    worker.decoder.feed(buf, static_cast<std::size_t>(n));
    while (true) {
      const auto frame = worker.decoder.next();
      if (!frame) break;
      if (!worker.admitted) {
        handle_handshake_frame(worker, *frame);
      } else if (hooks_.on_frame) {
        hooks_.on_frame(worker, *frame);
      }
      if (worker.peer.fd < 0) break;  // released while handling
    }
  } catch (const std::invalid_argument& e) {
    if (!worker.admitted && transport_->listen_fd() >= 0) {
      const std::string where = worker.peer.where;
      worker.shutdown_sent = true;
      worker.lost = true;
      transport_->release_peer(worker.peer);
      --live_;
      worker.released_seconds = clock_.elapsed_seconds();
      charge_admission_budget("peer " + where +
                              " sent a malformed frame: " + e.what());
      return;
    }
    throw std::runtime_error(std::string("malformed frame from worker ") +
                             worker.peer.where + ": " + e.what());
  }
}

void WorkerPool::poll_once(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::ptrdiff_t> owners;  ///< -1 = the listener.
  const int listen_fd = transport_->listen_fd();
  if (listen_fd >= 0) {
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    owners.push_back(-1);
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].peer.fd < 0) continue;
    fds.push_back(pollfd{workers_[i].peer.fd, POLLIN, 0});
    owners.push_back(static_cast<std::ptrdiff_t>(i));
  }
  if (fds.empty()) return;
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return;  // caller re-checks its stop flag
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (owners[i] < 0) {
      admit_pending();
      continue;
    }
    PoolWorker& worker = workers_[static_cast<std::size_t>(owners[i])];
    if (worker.peer.fd < 0) continue;  // released while handling a sibling
    read_ready(worker);
  }
  // Refresh the live per-worker gauges once per turn so a mid-run stats
  // poll sees current jobs/bytes/uptime, not admission-time zeros.
  for (PoolWorker& worker : workers_) {
    if (worker.peer.fd >= 0 && worker.admitted) update_worker_gauges(worker);
  }
}

std::vector<WorkerSummary> WorkerPool::summaries() const {
  std::vector<WorkerSummary> out;
  for (const PoolWorker& worker : workers_) {
    if (!worker.admitted) continue;
    WorkerSummary summary;
    summary.id = worker.id;
    summary.where = worker.peer.where;
    summary.host = worker.host;
    summary.remote_pid = worker.remote_pid;
    summary.jobs_done = worker.jobs_done;
    summary.lost = worker.lost;
    summary.lost_in_flight = worker.lost_in_flight;
    const double end = worker.peer.fd >= 0 ? clock_.elapsed_seconds()
                                           : worker.released_seconds;
    summary.seconds = end - worker.admitted_seconds;
    summary.bytes_in = worker.bytes_in;
    summary.bytes_out = worker.bytes_out;
    out.push_back(std::move(summary));
  }
  // Admission order == id order by construction (ids are assigned from a
  // counter at admission), but workers_ is in connection order; sort so
  // the summary lines are stable.
  std::sort(out.begin(), out.end(),
            [](const WorkerSummary& a, const WorkerSummary& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace ncb::net
