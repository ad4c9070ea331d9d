#include "net/process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ncb::net {

std::string self_exe_path(const std::string& argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0;
}

WorkerProcess spawn_worker(const std::vector<std::string>& command) {
  if (command.empty()) {
    throw std::runtime_error("spawn_worker: empty command");
  }
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error(std::string("socketpair failed: ") +
                             std::strerror(errno));
  }
  // Build the child argv BEFORE forking: the caller may have live threads
  // (shard pools), and allocating after fork can deadlock on a malloc lock
  // a peer thread held at fork time. The fd number is known pre-fork.
  std::vector<std::string> args = command;
  args.push_back("--worker-fd");
  args.push_back(std::to_string(sv[1]));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: keep only the worker end, exec ourselves in worker mode.
    // Only async-signal-safe calls happen between fork and exec.
    ::close(sv[0]);
    ::execv(argv[0], argv.data());
    // Exec failed; 127 is the conventional "command not runnable" code.
    ::_exit(127);
  }
  ::close(sv[1]);
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  return WorkerProcess{pid, sv[0]};
}

int reap_worker(pid_t pid) {
  if (pid <= 0) return 0;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 0;
  }
  return status;
}

void kill_worker(pid_t pid, int signal) {
  if (pid > 0) ::kill(pid, signal);
}

}  // namespace ncb::net
