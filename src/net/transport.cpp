#include "net/transport.hpp"

#include <signal.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "net/process.hpp"

namespace ncb::net {

Peer StreamTransport::spawn_peer() {
  throw std::logic_error("this transport cannot spawn peers");
}

std::vector<Peer> StreamTransport::accept_ready() {
  throw std::logic_error("this transport does not accept connections");
}

ProcessTransport::ProcessTransport(std::vector<std::string> worker_command)
    : worker_command_(std::move(worker_command)) {
  if (worker_command_.empty()) {
    throw std::invalid_argument("ProcessTransport: empty worker command");
  }
}

Peer ProcessTransport::spawn_peer() {
  const WorkerProcess proc = spawn_worker(worker_command_);
  Peer peer;
  peer.fd = proc.fd;
  peer.pid = proc.pid;
  peer.where = "process " + std::to_string(proc.pid);
  return peer;
}

void ProcessTransport::release_peer(Peer& peer) {
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
  if (peer.pid > 0) {
    // SIGKILL is safe on an already-exited child: it stays a zombie (and
    // thus holds its pid) until the reap below.
    kill_worker(peer.pid, SIGKILL);
    reap_worker(peer.pid);
    peer.pid = -1;
  }
}

std::string ProcessTransport::describe() const {
  return "fork/exec of " + worker_command_.front();
}

TcpServerTransport::TcpServerTransport(const HostPort& bind_address)
    : listener_(bind_address) {}

std::vector<Peer> TcpServerTransport::accept_ready() {
  std::vector<Peer> peers;
  for (auto& [fd, name] : listener_.accept_pending()) {
    Peer peer;
    peer.fd = fd;
    peer.where = name;
    peers.push_back(std::move(peer));
  }
  return peers;
}

void TcpServerTransport::release_peer(Peer& peer) {
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
}

std::string TcpServerTransport::describe() const {
  return "tcp " + format_host_port(listener_.bound());
}

}  // namespace ncb::net
