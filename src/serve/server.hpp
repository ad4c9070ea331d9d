// Poll-based multi-client reactor for the online decision service.
//
// One thread owns every connection: an AF_UNIX listening socket plus N
// accepted nonblocking clients multiplexed through poll(). Clients speak
// the wire/ length-prefixed framing — a versioned Hello/HelloAck
// handshake (schema word kServeWireSchema) followed by any interleaving of
// DecideRequest (answered with a DecideReply), Feedback (one-way), and
// StatsRequest (answered with a StatsReply holding the flattened metrics
// registry — a live server is queryable without disturbing traffic).
// Replies are appended to a per-connection output buffer and written
// eagerly; whatever the socket cannot take immediately is drained via
// POLLOUT, so one slow client never blocks the reactor.
//
// A client closing its socket at a frame boundary is a clean departure; a
// malformed frame, a handshake mismatch, or an unexpected type drops that
// connection (counted in ServerStats::protocol_errors) without disturbing
// the others. When `should_stop` trips (the SIGTERM flag), the server
// closes the listening socket, keeps serving already-connected clients for
// at most drain_ms, flushes what it can, and returns — so feedback already
// in flight still reaches the engine and the event log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"

namespace ncb::serve {

struct ServerOptions {
  /// AF_UNIX socket path (bound fresh: a stale file is unlinked first).
  std::string socket_path;
  int backlog = 64;
  /// Polled between reactor rounds; true → drain and return.
  std::function<bool()> should_stop;
  /// Grace window after should_stop for in-flight client traffic.
  int drain_ms = 500;
  /// Registry mirroring the serve.* counters/histograms and answering
  /// StatsRequest frames; nullptr → obs::MetricsRegistry::global().
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-empty, the registry snapshot is written here as JSON: once at
  /// shutdown, and additionally every metrics_interval_ms while serving
  /// (0 = final snapshot only). Write failures warn once and never disturb
  /// serving.
  std::string metrics_out;
  int metrics_interval_ms = 0;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t decide_requests = 0;
  std::uint64_t feedback_frames = 0;
  /// Connections dropped for handshake/framing/type violations.
  std::uint64_t protocol_errors = 0;
};

/// Runs the reactor until should_stop trips. Binds and listens inside the
/// call; throws std::runtime_error when the socket cannot be set up (path
/// too long for sun_path, bind/listen failure). The socket file is
/// unlinked on return.
[[nodiscard]] ServerStats run_server(DecisionEngine& engine,
                                     const ServerOptions& options);

}  // namespace ncb::serve
