// Transport microbench: framed round-trips per second over the two
// StreamTransport byte streams — an AF_UNIX socketpair (the fork/exec
// process transport) and a connected localhost TCP socket (the --listen /
// --worker-connect transport, TCP_NODELAY on). One "round trip" is a
// write_frame of a payload-sized JobResult stand-in followed by the echo
// read — the dispatch layer's unit of work — so the delta between the two
// streams is the whole cost of going multi-machine on one box.
#include <benchmark/benchmark.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "net/tcp.hpp"
#include "wire/frame.hpp"

namespace {

using namespace ncb;

/// Echo peer: reads frames off `fd` and writes each one straight back
/// until the stream closes.
std::thread echo_thread(int fd) {
  return std::thread([fd] {
    try {
      while (auto frame = wire::read_frame(fd)) {
        wire::write_frame(fd, frame->type, frame->payload);
      }
    } catch (const std::exception&) {
      // Stream torn down mid-read at benchmark teardown — expected.
    }
  });
}

void round_trips(benchmark::State& state, int fd) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    wire::write_frame(fd, wire::MsgType::kJobResult, payload);
    const auto echoed = wire::read_frame(fd);
    if (!echoed || echoed->payload.size() != payload.size()) {
      state.SkipWithError("echo mismatch");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size() + 5) * 2);
}

void BM_SocketpairRoundTrip(benchmark::State& state) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  std::thread echo = echo_thread(sv[1]);
  round_trips(state, sv[0]);
  ::shutdown(sv[0], SHUT_RDWR);
  ::close(sv[0]);
  echo.join();
  ::close(sv[1]);
}
BENCHMARK(BM_SocketpairRoundTrip)->Arg(64)->Arg(4096)->Arg(262144);

void BM_LocalhostTcpRoundTrip(benchmark::State& state) {
  net::TcpListener listener(net::HostPort{"127.0.0.1", 0});
  const int client = net::tcp_connect(listener.bound(), 2000);
  int server = -1;
  for (int i = 0; i < 200 && server < 0; ++i) {
    auto accepted = listener.accept_pending();
    if (!accepted.empty()) {
      server = accepted[0].first;
      break;
    }
    ::usleep(5000);
  }
  if (server < 0) {
    ::close(client);
    state.SkipWithError("accept never completed");
    return;
  }
  std::thread echo = echo_thread(server);
  round_trips(state, client);
  ::shutdown(client, SHUT_RDWR);
  ::close(client);
  echo.join();
  ::close(server);
}
BENCHMARK(BM_LocalhostTcpRoundTrip)->Arg(64)->Arg(4096)->Arg(262144);

}  // namespace

BENCHMARK_MAIN();
