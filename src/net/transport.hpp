// StreamTransport: where worker connections come from. The dispatch layer
// (dist/ and replay/) speaks length-prefixed frames over a connected,
// ordered byte stream and never cares how that stream came to exist; this
// interface pins down the two ways one does:
//
//   ProcessTransport    fork+exec of our own binary over a socketpair —
//                       the single-machine path; the coordinator can mint
//                       peers on demand (can_spawn() == true).
//   TcpServerTransport  a listening TCP socket — workers on other machines
//                       dial in with --worker-connect; the coordinator
//                       admits whoever completes the handshake and cannot
//                       create peers itself.
//
// The asymmetry (spawn vs accept) is the whole interface: everything else
// about a peer — framing, handshake, job protocol, crash requeue — is
// byte-identical across transports, which is what the byte-identical
// output guarantee rides on.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "net/tcp.hpp"

namespace ncb::net {

/// One connected worker stream. `pid` is set only for process-transport
/// peers (it is what release must reap); `where` is a human label for logs
/// ("process 12345" or "10.0.0.7:51324").
struct Peer {
  int fd = -1;
  pid_t pid = -1;
  std::string where;
};

class StreamTransport {
 public:
  virtual ~StreamTransport() = default;

  /// Listening fd to poll for inbound connections, or -1 when peers are
  /// spawned rather than accepted.
  [[nodiscard]] virtual int listen_fd() const noexcept { return -1; }
  /// Whether the coordinator can create peers on demand (process
  /// transport). When false, the fleet is whoever connects.
  [[nodiscard]] virtual bool can_spawn() const noexcept { return false; }
  /// Creates one peer (only when can_spawn()). Throws on failure.
  [[nodiscard]] virtual Peer spawn_peer();
  /// Drains pending inbound connections (only when listen_fd() >= 0).
  [[nodiscard]] virtual std::vector<Peer> accept_ready();
  /// Severs one peer: closes the fd and, for spawned peers, kills and
  /// reaps the process. Idempotent; `peer.fd` is -1 afterwards.
  virtual void release_peer(Peer& peer) = 0;
  /// Human description for logs ("fork/exec of <binary>" / "tcp <addr>").
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Spawns workers as child processes of this coordinator over AF_UNIX
/// socketpairs (net/process.hpp).
class ProcessTransport final : public StreamTransport {
 public:
  explicit ProcessTransport(std::vector<std::string> worker_command);

  [[nodiscard]] bool can_spawn() const noexcept override { return true; }
  [[nodiscard]] Peer spawn_peer() override;
  void release_peer(Peer& peer) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::string> worker_command_;
};

/// Accepts workers over a listening TCP socket. The coordinator never
/// spawns; remote `--worker-connect` processes dial in.
class TcpServerTransport final : public StreamTransport {
 public:
  explicit TcpServerTransport(const HostPort& bind_address);

  [[nodiscard]] int listen_fd() const noexcept override {
    return listener_.fd();
  }
  [[nodiscard]] std::vector<Peer> accept_ready() override;
  void release_peer(Peer& peer) override;
  [[nodiscard]] std::string describe() const override;

  /// Bound address (carries the kernel-assigned port for --listen host:0).
  [[nodiscard]] const HostPort& bound() const noexcept {
    return listener_.bound();
  }

 private:
  TcpListener listener_;
};

}  // namespace ncb::net
