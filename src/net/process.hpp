// Local worker process management for the dispatch layer: socketpair +
// fork + exec of the coordinator's own binary in `--worker-fd` mode, plus
// reaping. Only this file touches process-creation syscalls, so a remote
// transport (ssh, container exec) slots in by replacing spawn_worker.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace ncb::net {

/// A spawned worker: its pid and the coordinator's end of the socketpair.
struct WorkerProcess {
  pid_t pid = -1;
  int fd = -1;
};

/// Path of the running executable (/proc/self/exe when resolvable,
/// `argv0` otherwise) — what the coordinator re-execs as a worker.
[[nodiscard]] std::string self_exe_path(const std::string& argv0);

/// Forks and execs `command` with `--worker-fd <n>` appended, where n is
/// the worker's end of a fresh AF_UNIX stream socketpair. The returned fd
/// is close-on-exec in the coordinator, so later workers do not inherit
/// their siblings' channels. Throws std::runtime_error on syscall failure.
[[nodiscard]] WorkerProcess spawn_worker(
    const std::vector<std::string>& command);

/// Blocking waitpid. Returns the raw wait status (0 when the pid was
/// already reaped or invalid).
int reap_worker(pid_t pid);

/// Best-effort signal delivery (no-op for pid <= 0).
void kill_worker(pid_t pid, int signal);

}  // namespace ncb::net
