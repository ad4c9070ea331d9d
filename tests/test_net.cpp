// Multi-machine transport layer (src/net/): host:port parsing with
// flag-named errors, TCP connect/listen plumbing over real localhost
// sockets (frame round-trips, TCP_NODELAY, named EADDRINUSE / refused
// errors), the frame decoder fed byte-at-a-time and in fuzzed partial
// chunks through an actual TCP stream, the versioned worker handshake
// rejected over TCP, the WorkerPool admission / loss / budget state
// machine driven through a TcpServerTransport, and the TaskFarm's
// scheduling (front requeue, attempt cap, idle hold) against hand-rolled
// workers over TCP.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exp/emitters.hpp"
#include "net/task_farm.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"

namespace ncb::net {
namespace {

// ------------------------------------------------------ host:port parse ---

TEST(HostPort, ParsesHostColonPort) {
  const HostPort address = parse_host_port("127.0.0.1:9000", "--listen");
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 9000);
  EXPECT_EQ(format_host_port(address), "127.0.0.1:9000");
}

TEST(HostPort, ParsesPortZeroAndMaxPort) {
  EXPECT_EQ(parse_host_port("0.0.0.0:0", "--listen").port, 0);
  EXPECT_EQ(parse_host_port("localhost:65535", "--listen").port, 65535);
}

TEST(HostPort, RejectionsAreFieldNamed) {
  // Every rejection must name the flag so cluster misconfiguration reads
  // as "--listen: ..." in the CLI error, never a bare parse failure.
  const std::vector<std::string> bad = {
      "no-colon", ":9000", "host:", "host:banana", "host:12x", "host:70000",
      "host:-1", "",
  };
  for (const std::string& text : bad) {
    try {
      (void)parse_host_port(text, "--worker-connect");
      FAIL() << "accepted '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--worker-connect"),
                std::string::npos)
          << "error for '" << text << "' does not name the flag: "
          << e.what();
    }
  }
}

// ------------------------------------------------------------- TCP I/O ---

TEST(Tcp, LoopbackFrameRoundTripWithNodelay) {
  TcpListener listener(HostPort{"127.0.0.1", 0});
  ASSERT_GT(listener.bound().port, 0);

  const int client = tcp_connect(listener.bound(), 2000);
  ASSERT_GE(client, 0);

  // The connected socket advertises TCP_NODELAY (both ends).
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);

  std::vector<std::pair<int, std::string>> accepted;
  for (int i = 0; i < 200 && accepted.empty(); ++i) {
    accepted = listener.accept_pending();
    if (accepted.empty()) ::usleep(5000);
  }
  ASSERT_EQ(accepted.size(), 1u);
  const int server = accepted[0].first;
  EXPECT_NE(accepted[0].second.find("127.0.0.1:"), std::string::npos);
  nodelay = 0;
  len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(server, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);

  const std::string payload(100000, 'x');
  dist::write_frame(client, dist::MsgType::kJobResult, payload);
  const auto frame = dist::read_frame(server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, dist::MsgType::kJobResult);
  EXPECT_EQ(frame->payload, payload);

  // And back the other way.
  dist::write_frame(server, dist::MsgType::kShutdown, "");
  const auto reply = dist::read_frame(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, dist::MsgType::kShutdown);

  ::close(client);
  ::close(server);
}

TEST(Tcp, ListenerRejectsAddressInUse) {
  TcpListener first(HostPort{"127.0.0.1", 0});
  try {
    TcpListener second(first.bound());
    FAIL() << "second bind of " << format_host_port(first.bound())
           << " succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("address already in use"), std::string::npos) << what;
    EXPECT_NE(what.find(format_host_port(first.bound())), std::string::npos)
        << what;
  }
}

TEST(Tcp, ConnectRefusedNamesEndpoint) {
  // Bind a port, then close it: nothing listens there, so connect is
  // refused (and the named port is provably ours to have been free).
  HostPort vacated;
  {
    TcpListener listener(HostPort{"127.0.0.1", 0});
    vacated = listener.bound();
  }
  try {
    (void)tcp_connect(vacated, 2000);
    FAIL() << "connect to a closed port succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("refused"), std::string::npos) << what;
    EXPECT_NE(what.find(format_host_port(vacated)), std::string::npos)
        << what;
  }
}

// ---------------------------------------- frame decoder over real TCP ---

/// Connects a client/server socket pair through a real localhost listener.
struct TcpPair {
  TcpListener listener{HostPort{"127.0.0.1", 0}};
  int client = -1;
  int server = -1;

  TcpPair() {
    client = tcp_connect(listener.bound(), 2000);
    for (int i = 0; i < 200 && server < 0; ++i) {
      auto accepted = listener.accept_pending();
      if (!accepted.empty()) {
        server = accepted[0].first;
        break;
      }
      ::usleep(5000);
    }
  }
  ~TcpPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }
};

std::string frame_bytes(dist::MsgType type, const std::string& payload) {
  std::string out;
  dist::append_frame(out, type, payload);
  return out;
}

TEST(Tcp, DecoderHandlesByteAtATimeDelivery) {
  TcpPair pair;
  ASSERT_GE(pair.server, 0);
  const std::string wire =
      frame_bytes(dist::MsgType::kHello, "a") +
      frame_bytes(dist::MsgType::kJobResult, std::string(300, 'b')) +
      frame_bytes(dist::MsgType::kShutdown, "");

  dist::FrameDecoder decoder;
  std::vector<dist::Frame> frames;
  char byte;
  for (const char c : wire) {
    // One byte through the real socket per turn — the worst segmentation
    // TCP can legally deliver.
    ASSERT_EQ(::send(pair.client, &c, 1, 0), 1);
    ASSERT_EQ(::recv(pair.server, &byte, 1, MSG_WAITALL), 1);
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, dist::MsgType::kHello);
  EXPECT_EQ(frames[1].payload, std::string(300, 'b'));
  EXPECT_EQ(frames[2].type, dist::MsgType::kShutdown);
}

TEST(Tcp, DecoderSurvivesFuzzedPartialChunksOverSocket) {
  // Seeded fuzz: random frame sizes cut into random chunk lengths, shipped
  // through a real TCP stream and re-assembled. Every frame must come out
  // intact and in order, regardless of segmentation.
  std::mt19937 rng(20170605);
  TcpPair pair;
  ASSERT_GE(pair.server, 0);

  std::vector<std::string> payloads;
  std::string wire;
  std::uniform_int_distribution<int> size_dist(0, 4000);
  for (int i = 0; i < 40; ++i) {
    std::string payload(static_cast<std::size_t>(size_dist(rng)), '\0');
    for (char& c : payload) c = static_cast<char>(rng() & 0xff);
    payloads.push_back(payload);
    wire += frame_bytes(dist::MsgType::kJobResult, payload);
  }

  std::thread sender([&] {
    std::mt19937 chunk_rng(7);
    std::uniform_int_distribution<std::size_t> chunk_dist(1, 977);
    std::size_t at = 0;
    while (at < wire.size()) {
      const std::size_t n = std::min(chunk_dist(chunk_rng), wire.size() - at);
      ASSERT_EQ(::send(pair.client, wire.data() + at, n, 0),
                static_cast<ssize_t>(n));
      at += n;
    }
    ::shutdown(pair.client, SHUT_WR);
  });

  dist::FrameDecoder decoder;
  std::vector<dist::Frame> frames;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(pair.server, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  sender.join();

  ASSERT_EQ(frames.size(), payloads.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].payload, payloads[i]) << "frame " << i;
  }
}

// -------------------------------------------- worker handshake over TCP ---

TEST(Tcp, WorkerHandshakeVersionMismatchOverTcp) {
  TcpPair pair;
  ASSERT_GE(pair.server, 0);

  int exit_code = -1;
  std::thread worker([&] {
    dist::WorkerOptions options;
    options.fd = pair.client;
    options.threads = 1;
    exit_code = dist::run_worker(options);
  });

  // Coordinator side: the Hello and WorkerInfo arrive over real TCP, then
  // the ack claims a future protocol version — the worker must refuse.
  const auto hello = dist::read_frame(pair.server);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, dist::MsgType::kHello);
  const auto info = dist::read_frame(pair.server);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->type, dist::MsgType::kWorkerInfo);
  const dist::WorkerInfoMsg identity =
      dist::decode_worker_info(info->payload);
  EXPECT_FALSE(identity.host.empty());
  dist::WireWriter bad_ack;
  bad_ack.put_u32(dist::kProtocolVersion + 1);
  dist::write_frame(pair.server, dist::MsgType::kHelloAck, bad_ack.take());

  worker.join();
  EXPECT_EQ(exit_code, 2);
}

// --------------------------------------------------- WorkerPool over TCP ---

/// Runs the real sweep worker loop against a TCP endpoint in a thread.
struct TcpWorkerThread {
  std::thread thread;
  int exit_code = -1;

  explicit TcpWorkerThread(const HostPort& address) {
    thread = std::thread([this, address] {
      const int fd = tcp_connect_retry(address, 2000, 5000);
      dist::WorkerOptions options;
      options.fd = fd;
      options.threads = 1;
      exit_code = dist::run_worker(options);
      ::close(fd);
    });
  }
  ~TcpWorkerThread() {
    if (thread.joinable()) thread.join();
  }
};

TEST(WorkerPool, AdmitsTcpWorkerAfterFullHandshake) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  WorkerPool::Options options;
  options.transport = &transport;
  options.expected_schema =
      static_cast<std::uint32_t>(exp::kSweepSchemaVersion);

  std::size_t admitted = 0;
  WorkerPool pool(options, {});
  WorkerPool::Hooks hooks;
  hooks.on_admitted = [&](PoolWorker& worker) {
    ++admitted;
    EXPECT_FALSE(worker.host.empty());
    EXPECT_GT(worker.remote_pid, 0u);
    EXPECT_EQ(worker.remote_threads, 1u);
    pool.send_shutdown(worker);
  };
  pool.set_hooks(std::move(hooks));

  TcpWorkerThread worker(transport.bound());
  for (int i = 0; i < 500 && (admitted == 0 || pool.live() > 0); ++i) {
    pool.poll_once(20);
  }
  EXPECT_EQ(admitted, 1u);
  EXPECT_EQ(pool.live(), 0u);
  worker.thread.join();
  EXPECT_EQ(worker.exit_code, 0);

  const std::vector<WorkerSummary> summaries = pool.summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_FALSE(summaries[0].lost);
  EXPECT_GT(summaries[0].bytes_in, 0u);
  EXPECT_GT(summaries[0].bytes_out, 0u);
}

TEST(WorkerPool, WrongSchemaPeerIsRejectedNotAdmitted) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  WorkerPool::Options options;
  options.transport = &transport;
  options.expected_schema = 12345;  // nothing legitimate presents this
  options.admission_budget = 8;

  std::size_t admitted = 0;
  WorkerPool pool(options, {});
  WorkerPool::Hooks hooks;
  hooks.on_admitted = [&](PoolWorker&) { ++admitted; };
  pool.set_hooks(std::move(hooks));

  // The real worker presents the sweep schema — a version-skewed build.
  TcpWorkerThread worker(transport.bound());
  for (int i = 0; i < 500 && pool.live() == 0; ++i) pool.poll_once(20);
  for (int i = 0; i < 500 && pool.live() > 0; ++i) pool.poll_once(20);
  EXPECT_EQ(admitted, 0u);
  EXPECT_EQ(pool.live(), 0u);
  worker.thread.join();
  // The pool drops a rejected peer without a reply; the worker sees EOF
  // while awaiting its ack and treats it as a vanished coordinator (0).
  EXPECT_EQ(worker.exit_code, 0);
  EXPECT_TRUE(pool.summaries().empty());
}

TEST(WorkerPool, JunkConnectionsExhaustAdmissionBudget) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  WorkerPool::Options options;
  options.transport = &transport;
  options.expected_schema =
      static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  options.admission_budget = 3;

  WorkerPool pool(options, {});

  // Peers that connect and hang up before the handshake: each one charges
  // the budget; the fourth pushes past it and poll_once throws.
  bool threw = false;
  for (int round = 0; round < 8 && !threw; ++round) {
    const int fd = tcp_connect(transport.bound(), 2000);
    ::close(fd);
    try {
      for (int i = 0; i < 200 && pool.live() == 0; ++i) pool.poll_once(10);
      for (int i = 0; i < 200 && pool.live() > 0; ++i) pool.poll_once(10);
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(threw);
}

TEST(WorkerPool, LostWorkerFiresOnLostWithTagIntact) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  WorkerPool::Options options;
  options.transport = &transport;
  options.expected_schema = 77;

  std::ptrdiff_t lost_tag = -100;
  WorkerPool pool(options, {});
  WorkerPool::Hooks hooks;
  hooks.on_admitted = [&](PoolWorker& worker) { worker.user_tag = 42; };
  hooks.on_lost = [&](PoolWorker& worker) { lost_tag = worker.user_tag; };
  pool.set_hooks(std::move(hooks));

  // Hand-rolled peer: complete the handshake (schema 77), then vanish.
  std::thread peer([&] {
    const int fd = tcp_connect_retry(transport.bound(), 2000, 5000);
    dist::HelloMsg hello;
    hello.schema = 77;
    dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
    dist::WorkerInfoMsg info;
    info.host = "testhost";
    info.pid = 1234;
    info.threads = 2;
    dist::write_frame(fd, dist::MsgType::kWorkerInfo,
                      dist::encode_worker_info(info));
    const auto ack = dist::read_frame(fd);
    EXPECT_TRUE(ack.has_value());
    ::close(fd);  // SIGKILL stand-in: gone with an assignment in flight
  });

  for (int i = 0; i < 500 && lost_tag == -100; ++i) pool.poll_once(20);
  peer.join();
  EXPECT_EQ(lost_tag, 42);

  const std::vector<WorkerSummary> summaries = pool.summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_TRUE(summaries[0].lost);
  EXPECT_TRUE(summaries[0].lost_in_flight);
  EXPECT_EQ(summaries[0].host, "testhost");
  EXPECT_EQ(summaries[0].remote_pid, 1234u);
}

// ------------------------------------------------------ TaskFarm over TCP ---

constexpr std::uint32_t kFarmSchema = 91;

using Assignment = std::pair<std::uint64_t, std::uint32_t>;  ///< id, attempt

/// What a fake farm worker saw: its assignments in order, and whether the
/// farm ended it with a Shutdown.
struct FakeLog {
  std::vector<Assignment> assigned;
  bool shutdown = false;
};

/// The protocol half of run_fake_worker (below).
void serve_fake_assignments(int fd, FakeLog& log,
                            const std::function<bool(const FakeLog&)>& survive) {
  dist::HelloMsg hello;
  hello.schema = kFarmSchema;
  dist::write_frame(fd, dist::MsgType::kHello, dist::encode_hello(hello));
  dist::WorkerInfoMsg info;
  info.host = "fake";
  info.pid = 1;
  info.threads = 1;
  dist::write_frame(fd, dist::MsgType::kWorkerInfo,
                    dist::encode_worker_info(info));
  std::optional<dist::Frame> frame = dist::read_frame(fd);
  ASSERT_TRUE(frame && frame->type == dist::MsgType::kHelloAck);
  while ((frame = dist::read_frame(fd))) {
    if (frame->type == dist::MsgType::kShutdown) {
      log.shutdown = true;
      break;
    }
    EXPECT_EQ(frame->type, dist::MsgType::kJobAssign);
    dist::WireReader in(frame->payload);
    const std::uint64_t id = in.get_u64();
    const std::uint32_t attempt = in.get_u32();
    log.assigned.emplace_back(id, attempt);
    if (!survive(log)) break;
    dist::WireWriter out;
    out.put_u64(id);
    dist::write_frame(fd, dist::MsgType::kJobResult, out.take());
  }
}

/// A hand-rolled farm worker: completes the handshake, then answers each
/// assignment (u64 task id | u32 attempt) with a result echoing the id —
/// unless `survive` (called after each assignment is logged) returns
/// false, in which case it closes its stream with the task in flight (the
/// SIGKILL stand-in). Returns on Shutdown, EOF or that close; a farm that
/// goes quiet for 20 s fails the test instead of hanging it.
void run_fake_worker(const HostPort& address, FakeLog& log,
                     const std::function<bool(const FakeLog&)>& survive =
                         [](const FakeLog&) { return true; }) {
  const int fd = tcp_connect_retry(address, 2000, 5000);
  const timeval timeout{20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  try {
    serve_fake_assignments(fd, log, survive);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fake worker: " << e.what();
  }
  ::close(fd);
}

/// Dies on its first assignment.
bool die_at_once(const FakeLog&) { return false; }

/// Spins until `flag` is set (bounded, so a broken farm fails, not hangs).
void wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Echo kind: the assignment carries the task id and attempt, the result
/// the id; `filed` collects task ids in filing order.
TaskKind echo_kind(std::vector<std::size_t>& filed) {
  TaskKind kind;
  kind.noun = "task";
  kind.schema = kFarmSchema;
  kind.metrics_prefix = "test.farm";
  kind.encode = [](const FarmTask& task, std::uint32_t attempt) {
    dist::WireWriter out;
    out.put_u64(task.id);
    out.put_u32(attempt);
    return out.take();
  };
  kind.file_result = [&filed](const FarmTask& task, std::uint32_t,
                              const std::string& payload, const PoolWorker&) {
    dist::WireReader in(payload);
    const std::uint64_t id = in.get_u64();
    in.finish();
    if (id != task.id) return false;
    filed.push_back(task.id);
    return true;
  };
  return kind;
}

/// Farm options over `transport`, with a deadline stop so a farm that
/// loses track of a task ends the test instead of hanging it.
FarmOptions farm_options(TcpServerTransport& transport) {
  FarmOptions options;
  options.transport = &transport;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  options.should_stop = [deadline] {
    return std::chrono::steady_clock::now() > deadline;
  };
  return options;
}

TEST(TaskFarm, LostTaskIsRequeuedAtTheFrontWithItsNextAttempt) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  std::vector<std::size_t> filed;
  const TaskKind kind = echo_kind(filed);

  // The first worker vanishes holding task 0; the second connects after.
  FakeLog first;
  FakeLog second;
  std::thread fleet([&] {
    run_fake_worker(transport.bound(), first, die_at_once);
    run_fake_worker(transport.bound(), second);
  });
  const FarmSummary summary = run_task_farm(
      {{0, "task-0"}, {1, "task-1"}}, kind, farm_options(transport));
  fleet.join();

  EXPECT_EQ(first.assigned, (std::vector<Assignment>{{0, 1}}));
  // Front requeue: task 0 comes back before task 1, on attempt 2.
  EXPECT_EQ(second.assigned, (std::vector<Assignment>{{0, 2}, {1, 1}}));
  EXPECT_TRUE(second.shutdown);
  EXPECT_EQ(filed, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(summary.requeues, 1u);
  EXPECT_EQ(summary.pending, 0u);
  EXPECT_FALSE(summary.interrupted);
  ASSERT_EQ(summary.workers.size(), 2u);
  EXPECT_TRUE(summary.workers[0].lost_in_flight);
  EXPECT_EQ(summary.workers[0].jobs_done, 0u);
  EXPECT_FALSE(summary.workers[1].lost);
  EXPECT_EQ(summary.workers[1].jobs_done, 2u);
}

TEST(TaskFarm, TaskThatKeepsLosingItsWorkerAbortsTheRun) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  std::vector<std::size_t> filed;
  const TaskKind kind = echo_kind(filed);

  std::vector<FakeLog> logs(kMaxAttempts);
  std::thread fleet([&] {
    for (FakeLog& log : logs) run_fake_worker(transport.bound(), log, die_at_once);
  });
  try {
    (void)run_task_farm({{7, "poison-task"}}, kind, farm_options(transport));
    ADD_FAILURE() << "the farm finished a task that killed every worker";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'poison-task'"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kMaxAttempts) + " times"),
              std::string::npos)
        << what;
  }
  fleet.join();
  for (std::uint32_t i = 0; i < kMaxAttempts; ++i) {
    EXPECT_EQ(logs[i].assigned, (std::vector<Assignment>{{7, i + 1}}))
        << "worker " << i;
  }
  EXPECT_TRUE(filed.empty());
}

TEST(TaskFarm, IdleWorkerIsHeldWhileATaskIsInFlightAndTakesTheRequeue) {
  TcpServerTransport transport(HostPort{"127.0.0.1", 0});
  std::vector<std::size_t> filed;
  TaskKind kind = echo_kind(filed);
  std::atomic<bool> task0_filed{false};
  kind.file_result = [&, file = kind.file_result](
                         const FarmTask& task, std::uint32_t attempt,
                         const std::string& payload, const PoolWorker& worker) {
    const bool ok = file(task, attempt, payload, worker);
    if (task.id == 0) task0_filed = true;
    return ok;
  };

  // `held` takes task 0 and finishes it once `doomed` holds task 1; only
  // after task 0 is filed does `doomed` vanish. The farm must keep `held`
  // (no Shutdown) and hand it the requeued task 1.
  std::atomic<bool> held_busy{false};
  std::atomic<bool> doomed_busy{false};
  FakeLog held;
  FakeLog doomed;
  std::thread held_thread([&] {
    run_fake_worker(transport.bound(), held, [&](const FakeLog& log) {
      if (log.assigned.size() == 1) {
        held_busy = true;
        wait_for(doomed_busy);
      }
      return true;
    });
  });
  std::thread doomed_thread([&] {
    wait_for(held_busy);
    run_fake_worker(transport.bound(), doomed, [&](const FakeLog&) {
      doomed_busy = true;
      wait_for(task0_filed);
      return false;
    });
  });
  const FarmSummary summary = run_task_farm(
      {{0, "task-0"}, {1, "task-1"}}, kind, farm_options(transport));
  held_thread.join();
  doomed_thread.join();

  EXPECT_EQ(held.assigned, (std::vector<Assignment>{{0, 1}, {1, 2}}));
  EXPECT_TRUE(held.shutdown);
  EXPECT_EQ(doomed.assigned, (std::vector<Assignment>{{1, 1}}));
  EXPECT_FALSE(doomed.shutdown);
  EXPECT_EQ(filed, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(summary.requeues, 1u);
  EXPECT_FALSE(summary.interrupted);
  ASSERT_EQ(summary.workers.size(), 2u);
  EXPECT_FALSE(summary.workers[0].lost);
  EXPECT_EQ(summary.workers[0].jobs_done, 2u);
  EXPECT_TRUE(summary.workers[1].lost_in_flight);
}

}  // namespace
}  // namespace ncb::net
