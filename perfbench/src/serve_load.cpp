// serve workload: ncb_serve as operators run it. A fresh server (the ci
// configuration: eps-greedy:eps=0 behind engine epsilon 0.05, K = 10^4,
// ER(0.001), event log and metrics on) is driven by ONE generator thread
// spinning on poll() over the load-connection count of AF_UNIX
// connections (never a thread per connection).
// Keys are Zipf(1.0) over 10^6 users, rewards follow the `noisy` model of
// the same §VII instance, and 2% of decisions never get feedback.
//
// A run measures three sessions, each a fresh server. Phases of a session:
// warm-up until every arm has received feedback (this retires eps-greedy's
// unvisited-arm cursor, which is not steady state); then alternating
// blocks of a closed loop with 8 requests in flight per connection
// (throughput, per 250 ms slice) and an open loop at a fixed 50 000
// decisions/s, about 45% of the closed-loop capacity on a 4-core box, timed
// from each request's scheduled send time (latency). The rate is a
// constant of the workload, never derived from a run. Each slice and block
// records the CPU time the host stole meanwhile (see StealWindows).
//
// The traced run adds a one-in-flight phase and in-process measurements of
// the same request stream: the wire codecs, a DecisionEngine with a log,
// EventLog appends, and a registry-built shadow of the serving policy.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "core/policy_registry.hpp"
#include "dist/protocol.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

namespace {

namespace dist = ncb::dist;

constexpr std::size_t kArms = 10000;
constexpr double kEdgeProb = 0.001;
constexpr double kEngineEpsilon = 0.05;
const char* const kPolicy = "eps-greedy:eps=0";
constexpr unsigned kWindow = 8;             ///< In flight per connection.
constexpr double kOpenLoopRate = 50000.0;   ///< Decisions/s, fixed.
constexpr std::int64_t kLateNs = 100000;    ///< Sent > 100 us after due.
constexpr int kSessions = 3;      ///< Fresh servers measured per run.
constexpr int kExtraSetups = 12;  ///< Set-ups timed besides the sessions'.

ncb::ExperimentConfig instance_config(std::uint64_t seed) {
  ncb::ExperimentConfig config;
  config.graph_family = ncb::GraphFamily::kErdosRenyi;
  config.num_arms = kArms;
  config.edge_probability = kEdgeProb;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------ process ---

/// A spawned ncb_serve. The destructor kills and reaps it if still alive.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& out_path) {
    std::vector<std::string> argv_strings{binary};
    argv_strings.insert(argv_strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool exited() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return pid_ <= 0;
  }
  /// SIGTERM and wait; returns the exit status (-1 when not a clean exit).
  int terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

int try_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Hello/HelloAck with the serve schema, then switch to nonblocking.
void handshake(int fd) {
  dist::HelloMsg hello;
  hello.schema = dist::kServeWireSchema;
  dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
  const auto ack = dist::read_frame(fd);
  if (!ack || ack->type != dist::MsgType::kHelloAck) {
    throw std::runtime_error("server rejected the handshake");
  }
  dist::decode_hello_ack(ack->payload);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

/// Spawns the server and waits until a client completes the handshake.
/// Returns the connected fd (the first load connection).
int wait_ready(ServerProcess& server, const std::string& socket_path) {
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (now_ns() < deadline) {
    if (server.exited()) throw std::runtime_error("ncb_serve exited at start");
    const int fd = try_connect(socket_path);
    if (fd >= 0) {
      handshake(fd);
      return fd;
    }
    ::usleep(1000);
  }
  throw std::runtime_error("ncb_serve did not become ready within 30 s");
}

// ---------------------------------------------------------- generator ---

enum class Phase { kWarmup, kClosed, kOpen, kLockstep, kDrain };

struct InFlight {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  Phase phase = Phase::kDrain;
};

struct Conn {
  int fd = -1;
  std::string out;
  dist::FrameDecoder decoder;
  std::deque<InFlight> inflight;
};

struct Reply {
  std::uint64_t decision_id = 0;
  std::uint32_t action = 0;
  double propensity = 0.0;
  bool received = false;
};

/// The single-threaded load generator: every connection is multiplexed
/// through one poll() loop; nothing here blocks on one socket.
class Generator {
 public:
  Generator(const std::vector<int>& fds, std::uint64_t seed,
            std::vector<double> means)
      : stream_(seed), means_(std::move(means)), fed_(means_.size(), false),
        seen_(kUserKeys, false) {
    for (const int fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }
  ~Generator() { close(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Closed loop until every arm has had feedback (or the time cap).
  bool warmup(double max_seconds) {
    phase_ = Phase::kWarmup;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(max_seconds * 1e9);
    for (Conn& c : conns_) fill(c);
    while (arms_fed_ < means_.size() && now_ns() < deadline) pump();
    drain();
    return arms_fed_ == means_.size();
  }

  /// Closed loop; adds the decision rate of each 250 ms slice to
  /// `slice_rates`.
  void closed_loop(double seconds, StealWindows& slice_rates) {
    phase_ = Phase::kClosed;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    constexpr std::int64_t kSlice = 250'000'000;
    std::uint64_t slice_done = completed_;
    std::int64_t slice_start = start;
    std::uint64_t slice_steal = steal_ticks();
    for (Conn& c : conns_) fill(c);
    while (true) {
      const std::int64_t now = now_ns();
      if (now - slice_start >= kSlice) {
        const std::uint64_t steal = steal_ticks();
        const double slice_s = static_cast<double>(now - slice_start) / 1e9;
        slice_rates.add(static_cast<double>(completed_ - slice_done) / slice_s,
                        steal - slice_steal, slice_s);
        slice_done = completed_;
        slice_start = now;
        slice_steal = steal;
      }
      if (now >= end) break;
      pump();
    }
    drain();
  }

  /// Open loop at `rate`/s: request k is due at start + k/rate whatever
  /// the replies do; latency is measured from the due time. Adds this
  /// block's latency p50 and p99 to the given window sets.
  void open_loop(double seconds, double rate, StealWindows& block_p50,
                 StealWindows& block_p99) {
    phase_ = Phase::kOpen;
    open_latency_us = Samples();
    const auto period = 1e9 / rate;
    const auto expected = static_cast<std::size_t>(seconds * rate) + 16;
    open_latency_us.reserve(expected);
    lag_us.reserve(lag_us.size() + expected);  // no reallocation mid-block
    const std::uint64_t steal_start = steal_ticks();
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t k = 0;
    std::int64_t due = start;
    while (due < end) {
      const std::int64_t now = now_ns();
      while (due <= now && due < end) {
        const std::int64_t lag = now - due;
        lag_us.add(static_cast<double>(lag) / 1e3);
        if (lag > kLateNs) ++late_requests;
        send_request(conns_[k % conns_.size()], due);
        ++k;
        due = start + static_cast<std::int64_t>(static_cast<double>(k) * period);
      }
      pump();
    }
    drain();
    const std::uint64_t steal = steal_ticks() - steal_start;
    const double block_s = static_cast<double>(now_ns() - start) / 1e9;
    open_requests += open_latency_us.size();
    block_p50.add(open_latency_us.median(), steal, block_s);
    block_p99.add(open_latency_us.quantile(0.99), steal, block_s);
  }

  /// One request in flight on the first connection; RTT samples in ns.
  void lockstep(double seconds) {
    phase_ = Phase::kLockstep;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    Conn& c = conns_.front();
    while (now_ns() < end) {
      send_request(c, now_ns());
      while (!c.inflight.empty()) pump();
    }
    drain();
  }

  /// Sends a StatsRequest on every connection (so every earlier frame has
  /// been processed) and returns the last reply's counters.
  std::map<std::string, std::uint64_t> stats() {
    drain();
    for (Conn& c : conns_) {
      stats_pending_ = true;
      dist::append_frame(c.out, dist::MsgType::kStatsRequest, "");
      while (stats_pending_) pump();
    }
    return last_stats_;
  }

  /// Closes every load connection (the server then sees clean EOFs).
  void close() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  // Accounting, read after the run.
  std::uint64_t sent = 0;
  std::uint64_t feedbacks_sent = 0;
  std::uint64_t first_seen_keys = 0;
  std::uint64_t out_of_order = 0;
  // Deques, not vectors: growth never copies (and stalls) mid-phase.
  std::deque<Request> requests;
  std::deque<Reply> replies;
  Samples open_latency_us;  ///< The current open-loop block only.
  std::size_t open_requests = 0;
  Samples lag_us;
  Samples lockstep_rtt_ns;
  std::uint64_t late_requests = 0;

 private:
  void fill(Conn& c) {
    while (c.inflight.size() < kWindow) send_request(c, now_ns());
  }

  void send_request(Conn& c, std::int64_t due) {
    const Request r = stream_.next();
    const std::uint64_t id = sent++;
    requests.push_back(r);
    replies.emplace_back();
    if (!seen_[r.key]) {
      seen_[r.key] = true;
      ++first_seen_keys;
    }
    dist::DecideRequestMsg msg;
    msg.request_id = id;
    msg.slot = id;
    msg.user_key = user_key(r.key);
    dist::append_frame(c.out, dist::MsgType::kDecideRequest,
                       dist::encode_decide_request(msg));
    c.inflight.push_back({id, due, phase_});
  }

  void flush(Conn& c) {
    std::size_t off = 0;
    while (off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + off, c.out.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
    c.out.erase(0, off);
  }

  /// Flush, poll without waiting, read and dispatch frames. The generator
  /// spins on its core, so its own wake-ups never enter a measurement.
  void pump() {
    for (Conn& c : conns_) flush(c);
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
    }
    if (::poll(fds.data(), fds.size(), 0) < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error("poll failed");
    }
    char buffer[1 << 16];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[i];
      while (true) {
        const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        c.decoder.feed(buffer, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buffer) break;
      }
      const std::int64_t now = now_ns();
      while (auto frame = c.decoder.next()) on_frame(c, *frame, now);
    }
    for (Conn& c : conns_) flush(c);
  }

  void on_frame(Conn& c, const dist::Frame& frame, std::int64_t now) {
    if (frame.type == dist::MsgType::kStatsReply) {
      last_stats_.clear();
      for (const auto& e : dist::decode_stats_reply(frame.payload).entries) {
        last_stats_[e.name] = e.value;
      }
      stats_pending_ = false;
      return;
    }
    if (frame.type != dist::MsgType::kDecideReply) {
      throw std::runtime_error("unexpected frame from the server");
    }
    const dist::DecideReplyMsg m = dist::decode_decide_reply(frame.payload);
    if (c.inflight.empty() || c.inflight.front().id != m.request_id) {
      ++out_of_order;
      return;
    }
    const InFlight f = c.inflight.front();
    c.inflight.pop_front();
    ++completed_;
    Reply& reply = replies[f.id];
    reply = {m.decision_id, m.action, m.propensity, true};
    if (f.phase == Phase::kOpen) {
      open_latency_us.add(static_cast<double>(now - f.due_ns) / 1e3);
    } else if (f.phase == Phase::kLockstep) {
      lockstep_rtt_ns.add(static_cast<double>(now - f.due_ns));
    }
    const Request& r = requests[f.id];
    if (!r.lose && m.action < means_.size()) {
      dist::FeedbackMsg feedback;
      feedback.decision_id = m.decision_id;
      feedback.reward = noisy_reward(means_[m.action], r.noise);
      dist::append_frame(c.out, dist::MsgType::kFeedback,
                         dist::encode_feedback(feedback));
      ++feedbacks_sent;
      if (!fed_[m.action]) {
        fed_[m.action] = true;
        ++arms_fed_;
      }
    }
    if (phase_ == Phase::kClosed || phase_ == Phase::kWarmup) fill(c);
  }

  /// Stops issuing and waits until every request has its reply and every
  /// queued byte (feedback included) has been sent.
  void drain() {
    phase_ = Phase::kDrain;
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    const auto busy = [&] {
      for (const Conn& c : conns_) {
        if (!c.inflight.empty() || !c.out.empty()) return true;
      }
      return false;
    };
    while (busy()) {
      if (now_ns() > deadline) throw std::runtime_error("drain timed out");
      pump();
    }
  }

  RequestStream stream_;
  std::vector<double> means_;
  std::vector<bool> fed_;
  std::size_t arms_fed_ = 0;
  std::vector<bool> seen_;
  std::vector<Conn> conns_;
  Phase phase_ = Phase::kDrain;
  std::uint64_t completed_ = 0;
  bool stats_pending_ = false;
  std::map<std::string, std::uint64_t> last_stats_;
};

std::uint64_t stat_delta(const std::map<std::string, std::uint64_t>& a,
                         const std::map<std::string, std::uint64_t>& b,
                         const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  if (ib == b.end()) return 0;
  return ib->second - (ia == a.end() ? 0 : ia->second);
}

// ------------------------------------------------- log / reply checks ---

void check_log(const std::string& log_path, const Generator& gen,
               Result& result) {
  const ncb::serve::EventLogScan scan = ncb::serve::read_event_log(log_path);
  const ncb::serve::EventLogJoin join = ncb::serve::join_event_log(scan);
  if (scan.truncated_tail) result.violation("event log has a torn tail");
  if (join.decisions != gen.sent) {
    result.violation("log holds " + std::to_string(join.decisions) +
                     " decisions, " + std::to_string(gen.sent) + " were sent");
  }
  if (join.joined != gen.feedbacks_sent) {
    result.violation("log joined " + std::to_string(join.joined) +
                     " feedbacks, " + std::to_string(gen.feedbacks_sent) +
                     " were sent");
  }
  if (join.orphan_feedbacks != 0 || join.duplicate_feedbacks != 0) {
    result.violation("log has orphan or duplicate feedback");
  }
  // decision_id → request id, from the replies.
  std::vector<std::uint64_t> request_of(gen.sent + 1, ~0ULL);
  std::uint64_t unanswered = 0;
  std::uint64_t unissued = 0;
  for (std::uint64_t i = 0; i < gen.replies.size(); ++i) {
    const Reply& r = gen.replies[i];
    if (!r.received) {
      ++unanswered;
    } else if (r.decision_id < request_of.size()) {
      request_of[r.decision_id] = i;
    } else {
      ++unissued;
    }
  }
  if (unanswered != 0) {
    result.violation(std::to_string(unanswered) + " requests got no reply",
                     unanswered);
  }
  if (unissued != 0) {
    result.violation(std::to_string(unissued) +
                         " replies carry an unissued decision id",
                     unissued);
  }
  // Every logged decision must be exactly what its reply said.
  std::uint64_t mismatches = 0;
  for (const ncb::serve::JoinedEvent& e : join.events) {
    const std::uint64_t i =
        e.decision_id < request_of.size() ? request_of[e.decision_id] : ~0ULL;
    if (i == ~0ULL) {
      ++mismatches;
      continue;
    }
    const Reply& r = gen.replies[i];
    if (r.action != static_cast<std::uint32_t>(e.action) ||
        std::memcmp(&r.propensity, &e.propensity, sizeof(double)) != 0 ||
        e.key != user_key(gen.requests[i].key)) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    result.violation(std::to_string(mismatches) +
                         " replies differ from their log record",
                     mismatches);
  }
}

// ------------------------------------------------- traced in-process ---

/// Encode + decode of one DecideRequest, DecideReply and Feedback, on the
/// workload's own frames; median ns per triple.
double codec_ns(const Generator& gen, Result& result) {
  Samples ns;
  const std::size_t n = std::min<std::size_t>(gen.replies.size(), 200000);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Reply& r = gen.replies[i];
    dist::DecideRequestMsg request;
    request.request_id = i;
    request.slot = i;
    request.user_key = user_key(gen.requests[i].key);
    dist::DecideReplyMsg reply;
    reply.request_id = i;
    reply.slot = i;
    reply.decision_id = r.decision_id;
    reply.action = r.action;
    reply.propensity = r.propensity;
    dist::FeedbackMsg feedback;
    feedback.decision_id = r.decision_id;
    feedback.reward = gen.requests[i].noise;
    const std::int64_t t0 = now_ns();
    const auto q = dist::decode_decide_request(dist::encode_decide_request(request));
    const auto p = dist::decode_decide_reply(dist::encode_decide_reply(reply));
    const auto f = dist::decode_feedback(dist::encode_feedback(feedback));
    ns.add(static_cast<double>(now_ns() - t0));
    if (q.user_key != request.user_key || p.decision_id != reply.decision_id ||
        p.action != reply.action || f.reward != feedback.reward) {
      ++bad;
    }
  }
  ++result.attempted;
  if (bad != 0) result.violation("codec round trip changed a message");
  return ns.median();
}

struct EngineSpans {
  Samples decide_ns, report_ns, append_ns, select_ns, observe_ns;
};

/// In-process DecisionEngine (log attached) plus a separate EventLog, fed
/// the request stream lockstep; only calls after every arm has had
/// feedback are timed, as on the live server.
void engine_spans(const ncb::Graph& graph, const std::vector<double>& means,
                  std::uint64_t seed, std::size_t requests,
                  const WorkDir& dir, EngineSpans& spans) {
  ncb::serve::EventLog::Options engine_log_options;
  engine_log_options.path = dir.file("shadow_engine.ncbl");
  ncb::serve::EventLog engine_log(engine_log_options);
  ncb::serve::EventLog::Options append_log_options;
  append_log_options.path = dir.file("shadow_append.ncbl");
  ncb::serve::EventLog append_log(append_log_options);
  ncb::serve::EngineOptions engine_options;
  engine_options.policy_spec = kPolicy;
  engine_options.epsilon = kEngineEpsilon;
  engine_options.seed = seed;
  ncb::serve::DecisionEngine engine(graph, engine_options, &engine_log);

  std::vector<bool> fed(means.size(), false);
  std::size_t arms_fed = 0;
  RequestStream stream(seed);
  for (std::size_t i = 0; i < requests; ++i) {
    const Request r = stream.next();
    const std::string key = user_key(r.key);
    const bool timed = arms_fed == means.size();
    std::int64_t t0 = now_ns();
    const ncb::serve::Decision d = engine.decide(key, i);
    std::int64_t t1 = now_ns();
    if (timed) spans.decide_ns.add(static_cast<double>(t1 - t0));
    append_log.append_decision(d.decision_id, key, d.action, d.propensity);
    if (timed) spans.append_ns.add(static_cast<double>(now_ns() - t1));
    if (r.lose) continue;
    const double reward = noisy_reward(means[d.action], r.noise);
    t0 = now_ns();
    engine.report(d.decision_id, reward);
    t1 = now_ns();
    if (timed) spans.report_ns.add(static_cast<double>(t1 - t0));
    append_log.append_feedback(d.decision_id, reward);
    if (timed) spans.append_ns.add(static_cast<double>(now_ns() - t1));
    if (!fed[d.action]) {
      fed[d.action] = true;
      ++arms_fed;
    }
  }

  // Shadow of the serving policy alone, same stream, bandit feedback.
  auto policy = ncb::PolicyRegistry::instance().make_single_play(kPolicy, 0, seed);
  policy->reset(graph);
  std::fill(fed.begin(), fed.end(), false);
  arms_fed = 0;
  RequestStream shadow_stream(seed);
  for (std::size_t i = 0; i < requests; ++i) {
    const Request r = shadow_stream.next();
    const bool timed = arms_fed == means.size();
    const auto t = static_cast<ncb::TimeSlot>(i + 1);
    std::int64_t t0 = now_ns();
    const ncb::ArmId arm = policy->select(t);
    if (timed) spans.select_ns.add(static_cast<double>(now_ns() - t0));
    if (r.lose) continue;
    const double reward = noisy_reward(means[arm], r.noise);
    t0 = now_ns();
    policy->observe(arm, t, {{arm, reward}});
    if (timed) spans.observe_ns.add(static_cast<double>(now_ns() - t0));
    if (!fed[arm]) {
      fed[arm] = true;
      ++arms_fed;
    }
  }
}

}  // namespace

Result run_serve(const RunOptions& options) {
  if (options.ncb_serve.empty()) {
    throw std::invalid_argument("the serve workload needs --ncb-serve <path>");
  }
  Result result;
  WorkDir dir;
  const ncb::ExperimentConfig config = instance_config(options.seed);
  const std::vector<double> means = ncb::build_instance(config).means();
  RequestStream warm(options.seed);  // builds the Zipf table outside set-up
  (void)warm;

  const std::string socket_path = dir.file("serve.sock");
  const std::string log_path = dir.file("serve.ncbl");
  const std::vector<std::string> args = {
      "--socket", socket_path, "--policy", kPolicy,
      "--epsilon", "0.05", "--arms", std::to_string(kArms),
      "--graph", "er", "--edge-prob", "0.001",
      "--seed", std::to_string(options.seed), "--log", log_path,
      "--metrics-out", dir.file("serve_metrics.json")};

  // Set-up is spawn → socket ready; every spawn of the run is timed.
  Samples setup_s;
  std::unique_ptr<ServerProcess> server;
  const auto start_server = [&] {
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(options.ncb_serve, args,
                                             dir.file("serve.out"));
    const int fd = wait_ready(*server, socket_path);
    setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    return fd;
  };
  for (int i = 0; i < kExtraSetups; ++i) {
    ::close(start_server());
    if (server->terminate() != 0) result.violation("ncb_serve exit != 0");
  }

  // Several sessions, each a fresh server with its own warm-up, so that
  // what one server process happens to get (its placement on the
  // machine's CPUs, its memory layout) is one sample of several. Within a
  // session, closed- and open-loop blocks alternate, so a slow stretch of
  // the machine lands in both; each metric is the median over the slices
  // or blocks, of all sessions, that the host stole least from.
  StealWindows slice_rates;
  StealWindows block_p50;
  StealWindows block_p99;
  Samples lag_p99;
  Samples pending_end;
  std::map<std::string, double> window;  // server counters, all sessions
  std::uint64_t late_requests = 0;
  double peak_rss = 0.0;
  const int blocks = std::max(
      2, static_cast<int>(options.seconds * 0.9 / kSessions / 0.8));
  std::unique_ptr<Generator> gen;
  for (int session = 0; session < kSessions; ++session) {
    std::vector<int> fds{start_server()};
    while (fds.size() < options.threads) {
      const int fd = try_connect(socket_path);
      if (fd < 0) throw std::runtime_error("could not open a load connection");
      handshake(fd);
      fds.push_back(fd);
    }
    gen = std::make_unique<Generator>(fds, options.seed, means);

    if (!gen->warmup(30.0)) result.violation("warm-up did not reach every arm");
    const auto stats_start = gen->stats();
    for (int b = 0; b < blocks; ++b) {
      gen->closed_loop(0.5, slice_rates);
      gen->open_loop(0.3, kOpenLoopRate, block_p50, block_p99);
    }
    const auto stats_end = gen->stats();
    const bool last = session + 1 == kSessions;
    if (options.trace && last) {
      gen->lockstep(std::min(1.0, options.seconds * 0.1));
    }
    const auto stats_final = gen->stats();
    peak_rss = std::max(peak_rss, peak_rss_mb(server->pid()));
    for (const char* name : {"serve.engine.decisions", "serve.log.flushes",
                             "serve.log.flush_stalls",
                             "serve.log.flushed_bytes"}) {
      window[name] +=
          static_cast<double>(stat_delta(stats_start, stats_end, name));
    }
    // Decisions the server still holds awaiting feedback at the end.
    pending_end.add(static_cast<double>(
        stat_delta({}, stats_final, "serve.engine.decisions") -
        stat_delta({}, stats_final, "serve.engine.feedbacks")));
    lag_p99.add(gen->lag_us.quantile(0.99));
    late_requests += gen->late_requests;
    std::printf(
        "serve session %d: %llu requests, %llu feedbacks, open loop %zu "
        "requests, %llu sent late (> %lld us)\n",
        session, static_cast<unsigned long long>(gen->sent),
        static_cast<unsigned long long>(gen->feedbacks_sent),
        gen->open_requests,
        static_cast<unsigned long long>(gen->late_requests),
        static_cast<long long>(kLateNs / 1000));

    // Close the load connections (the server has processed every frame:
    // stats() waited for a reply on each), stop the server, check its log.
    gen->close();
    if (server->terminate() != 0) result.violation("ncb_serve exit != 0");
    result.attempted += gen->sent;
    if (gen->out_of_order != 0) result.violation("replies out of order");
    check_log(log_path, *gen, result);
  }

  const double qps = slice_rates.median();
  result.set("setup_s", setup_s.median());
  result.set("peak_rss_mb", peak_rss);
  result.set("throughput_per_s", qps);
  result.set("latency_p50_us", block_p50.median());
  result.set("serve.latency_p99_us", block_p99.median());
  std::printf(
      "serve: closed loop %.0f/s, open-loop p50 %.1f us; medians over the "
      "%zu of %zu slices and %zu of %zu blocks with the least host steal\n",
      qps, block_p50.median(), slice_rates.kept(), slice_rates.size(),
      block_p50.kept(), block_p50.size());
  result.set("serve.log.flushes", window["serve.log.flushes"]);
  result.set("serve.log.flush_stalls", window["serve.log.flush_stalls"]);
  result.set("serve.log.bytes_per_request",
             window["serve.log.flushed_bytes"] /
                 std::max(1.0, window["serve.engine.decisions"]));
  result.set("serve.engine.pending_end", pending_end.median());
  // Every session sends the same request stream: the input shares and
  // key counts are those of one session.
  result.set("serve.keys.distinct", static_cast<double>(gen->first_seen_keys));
  result.set("serve.input.first_seen_key_share",
             static_cast<double>(gen->first_seen_keys) /
                 static_cast<double>(gen->sent));
  result.set("serve.input.lost_feedback_share",
             1.0 - static_cast<double>(gen->feedbacks_sent) /
                       static_cast<double>(gen->sent));
  result.set("serve.gen.lag_us.p99", lag_p99.median());
  result.set("serve.gen.late_requests", static_cast<double>(late_requests));

  if (options.trace) {
    const double codec = codec_ns(*gen, result);
    result.set("dist.codec_ns", codec);
    EngineSpans spans;
    const ncb::Graph graph = ncb::build_graph(config);
    engine_spans(graph, means, options.seed,
                 std::min<std::size_t>(gen->sent, 400000), dir, spans);
    result.set("serve.engine.decide_ns.p50", spans.decide_ns.median());
    result.set("serve.engine.decide_ns.p99", spans.decide_ns.quantile(0.99));
    result.set("serve.engine.report_ns.p50", spans.report_ns.median());
    result.set("serve.engine.report_ns.p99", spans.report_ns.quantile(0.99));
    result.set("serve.log.append_ns.p50", spans.append_ns.median());
    result.set("core.serve.select_ns.p50", spans.select_ns.median());
    result.set("core.serve.select_ns.p99", spans.select_ns.quantile(0.99));
    result.set("core.serve.observe_ns.p50", spans.observe_ns.median());
    result.set("serve.reactor.residual_us.p50",
               (gen->lockstep_rtt_ns.median() - spans.decide_ns.median() -
                codec) / 1e3);
  }
  return result;
}

}  // namespace perfbench
