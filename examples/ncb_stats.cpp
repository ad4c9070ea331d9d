// ncb_stats — live metrics poller for a running ncb_serve.
//
// Connects to the server's AF_UNIX socket, completes the same
// Hello/HelloAck handshake decide traffic uses, and sends StatsRequest
// frames; each StatsReply carries the server's flattened metrics registry
// (counters, gauges, histogram quantiles). One-shot by default; --watch
// redraws like top, annotating counters with per-second rates computed
// from successive polls. Polling rides the ordinary reactor path, so it
// never perturbs serving — the hard invariant the serve tests pin.
//
// Usage:
//   ncb_stats --socket <path> [--watch] [--interval-ms N] [--raw]
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>

#include <cstring>

#include "obs/metrics.hpp"
#include "util/arg_parse.hpp"
#include "wire/serve_messages.hpp"

namespace {

using namespace ncb;

int usage(const char* program) {
  std::cerr
      << "usage: " << program << " --socket <path> [options]\n"
         "  --socket <path>   AF_UNIX socket of a running ncb_serve\n"
         "  --watch           redraw every interval until interrupted\n"
         "  --interval-ms N   polling interval for --watch (default: 1000)\n"
         "  --raw             print bare 'name value' lines (grep-friendly)\n";
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void handle_stop_signal(int) { g_stop = 1; }

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long for AF_UNIX");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("connect '" + path +
                             "': " + std::strerror(saved));
  }
  return fd;
}

void handshake(int fd) {
  wire::HelloMsg hello;
  hello.schema = wire::kServeWireSchema;
  wire::write_frame(fd, wire::MsgType::kHello, wire::encode_hello(hello));
  const auto ack = wire::read_frame(fd);
  if (!ack || ack->type != wire::MsgType::kHelloAck) {
    throw std::runtime_error("server rejected the handshake");
  }
  wire::decode_hello_ack(ack->payload);
}

wire::StatsReplyMsg poll_stats(int fd) {
  wire::write_frame(fd, wire::MsgType::kStatsRequest, "");
  const auto frame = wire::read_frame(fd);
  if (!frame || frame->type != wire::MsgType::kStatsReply) {
    throw std::runtime_error("expected a StatsReply");
  }
  return wire::decode_stats_reply(frame->payload);
}

void print_raw(const wire::StatsReplyMsg& reply) {
  for (const obs::StatEntry& entry : reply.entries) {
    if (entry.kind == obs::kStatGauge) {
      std::cout << entry.name << ' '
                << static_cast<std::int64_t>(entry.value) << '\n';
    } else {
      std::cout << entry.name << ' ' << entry.value << '\n';
    }
  }
}

/// Pretty table: one line per entry, counters annotated with the
/// per-second rate against the previous poll (when one exists).
void print_pretty(const wire::StatsReplyMsg& reply,
                  const std::map<std::string, std::uint64_t>& previous,
                  double interval_seconds) {
  for (const obs::StatEntry& entry : reply.entries) {
    char line[160];
    if (entry.kind == obs::kStatCounter) {
      const auto it = previous.find(entry.name);
      if (it != previous.end() && interval_seconds > 0) {
        const double rate =
            static_cast<double>(entry.value - it->second) / interval_seconds;
        std::snprintf(line, sizeof line, "%-44s %14llu  %10.1f/s",
                      entry.name.c_str(),
                      static_cast<unsigned long long>(entry.value), rate);
      } else {
        std::snprintf(line, sizeof line, "%-44s %14llu", entry.name.c_str(),
                      static_cast<unsigned long long>(entry.value));
      }
    } else if (entry.kind == obs::kStatGauge) {
      std::snprintf(line, sizeof line, "%-44s %14lld  (gauge)",
                    entry.name.c_str(),
                    static_cast<long long>(
                        static_cast<std::int64_t>(entry.value)));
    } else {
      std::snprintf(line, sizeof line, "%-44s %14llu", entry.name.c_str(),
                    static_cast<unsigned long long>(entry.value));
    }
    std::cout << line << '\n';
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    if (args.has("help")) return usage(args.program().c_str());
    const std::string socket_path = args.get_string("socket", "");
    if (socket_path.empty()) return usage(args.program().c_str());
    const bool watch = args.get_bool("watch", false);
    const bool raw = args.get_bool("raw", false);
    const std::int64_t interval_ms =
        std::max<std::int64_t>(1, args.get_int("interval-ms", 1000));

    struct sigaction action {};
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    const int fd = connect_unix(socket_path);
    handshake(fd);

    std::map<std::string, std::uint64_t> previous;
    while (g_stop == 0) {
      const wire::StatsReplyMsg reply = poll_stats(fd);
      if (raw) {
        print_raw(reply);
      } else {
        if (watch) std::cout << "\033[2J\033[H";  // clear + home, like top
        std::cout << "ncb_stats: " << socket_path << " ("
                  << reply.entries.size() << " metrics)\n";
        print_pretty(reply, previous,
                     static_cast<double>(interval_ms) / 1000.0);
      }
      if (!watch) break;
      previous.clear();
      for (const obs::StatEntry& entry : reply.entries) {
        if (entry.kind == obs::kStatCounter) {
          previous.emplace(entry.name, entry.value);
        }
      }
      ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    }
    ::close(fd);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "ncb_stats") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
