// TCP plumbing for the multi-machine transport: host:port parsing with
// flag-named errors, nonblocking connect with a timeout, and a listening
// socket. Everything above this file only ever sees connected stream fds —
// the wire/ framing and the worker loops are transport-agnostic by
// construction, so this is the whole cost of going multi-machine.
//
// Error style: every failure names the endpoint (and, for parse errors,
// the CLI flag) so a misconfigured cluster run fails with "--listen: ..."
// or "connection refused by 10.0.0.7:9000", never a bare errno.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ncb::net {

struct HostPort {
  std::string host;
  std::uint16_t port = 0;  ///< 0 = let the kernel pick (listeners only).
};

/// Renders "host:port".
[[nodiscard]] std::string format_host_port(const HostPort& address);

/// Parses "host:port". `flag` names the CLI flag in error messages (e.g.
/// "--listen"), so validation failures are field-named. Throws
/// std::invalid_argument on a missing colon, empty host, or a port that is
/// not a decimal integer in [0, 65535].
[[nodiscard]] HostPort parse_host_port(const std::string& text,
                                       const std::string& flag);

/// Connects to `address` with a nonblocking connect bounded by
/// `timeout_ms`, then switches the socket back to blocking and sets
/// TCP_NODELAY (frames are latency-sensitive and already batched by the
/// callers). Throws std::runtime_error naming the endpoint on refused
/// connections, timeouts, and resolution failures.
[[nodiscard]] int tcp_connect(const HostPort& address, int timeout_ms);

/// tcp_connect that retries refused connections (the worker-starts-before-
/// the-coordinator race) until `retry_total_ms` has elapsed. Other errors
/// propagate immediately.
[[nodiscard]] int tcp_connect_retry(const HostPort& address, int timeout_ms,
                                    int retry_total_ms);

/// A nonblocking listening TCP socket with SO_REUSEADDR. Binding a port
/// that is already taken throws a named "address already in use" error
/// instead of a bare EADDRINUSE.
class TcpListener {
 public:
  explicit TcpListener(const HostPort& bind_address);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The bound address; when the requested port was 0 this carries the
  /// kernel-assigned port (what a coordinator advertises to workers).
  [[nodiscard]] const HostPort& bound() const noexcept { return bound_; }

  /// Accepts every currently pending connection (the listener is
  /// nonblocking, so this drains and returns). Each accepted socket is
  /// blocking with TCP_NODELAY set; returns (fd, "ip:port") pairs.
  [[nodiscard]] std::vector<std::pair<int, std::string>> accept_pending();

 private:
  int fd_ = -1;
  HostPort bound_;
};

}  // namespace ncb::net
