// Process-level tests of the ncb_serve CLI (path injected as
// NCB_SERVE_BIN), covering the parts that never need a live socket:
//   - field-named validation of the numeric flags (--flush-bytes,
//     --flush-ms, --backlog, --drain-ms, --metrics-interval-ms) with exit
//     code 2 and the offending flag named on stderr,
//   - --inspect-log's machine-readable join-health JSON block (duplicate
//     feedbacks, unjoined decisions, orphan feedbacks, truncated tail)
//     over logs written in-process with the real EventLog.
// All tests GTEST_SKIP when the binary is not built (the ASan config
// builds tests without examples).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/event_log.hpp"

#ifndef NCB_SERVE_BIN
#define NCB_SERVE_BIN ""
#endif

namespace ncb {
namespace {

namespace fs = std::filesystem;

constexpr const char* kServeBin = NCB_SERVE_BIN;

bool binary_available() { return kServeBin[0] != '\0'; }

#define REQUIRE_BINARY()                                           \
  do {                                                             \
    if (!binary_available())                                       \
      GTEST_SKIP() << "ncb_serve not built in this configuration"; \
  } while (0)

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_scli_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// fork/exec of the real binary; stdout/stderr go to the given paths (or
/// /dev/null when empty).
pid_t spawn_serve(const std::vector<std::string>& args,
                  const std::string& stdout_path = "",
                  const std::string& stderr_path = "") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const auto redirect = [](const std::string& path, int target) {
    const int fd = ::open(path.empty() ? "/dev/null" : path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, target);
      ::close(fd);
    }
  };
  redirect(stdout_path, STDOUT_FILENO);
  redirect(stderr_path, STDERR_FILENO);
  std::vector<std::string> full;
  full.push_back(kServeBin);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& arg : full) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(kServeBin, argv.data());
  ::_exit(127);
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int run_serve(const std::vector<std::string>& args,
              const std::string& stdout_path = "",
              const std::string& stderr_path = "") {
  return wait_exit(spawn_serve(args, stdout_path, stderr_path));
}

/// Rejected flag sets: each case must exit 2 and name its flag on stderr.
/// Every command line is otherwise valid (socket present), so only the
/// flag under test can be the cause.
struct RejectCase {
  std::vector<std::string> extra;
  std::string expect_in_stderr;
};

TEST(ServeCliValidation, BadNumericFlagsExitTwoAndNameTheField) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::vector<RejectCase> cases = {
      {{"--flush-bytes", "0"}, "--flush-bytes: must be positive (got 0)"},
      {{"--flush-bytes", "-5"}, "--flush-bytes: must be positive (got -5)"},
      {{"--flush-ms", "0"}, "--flush-ms: must be positive (got 0)"},
      {{"--backlog", "0"}, "--backlog: must be positive (got 0)"},
      {{"--drain-ms", "-1"}, "--drain-ms: must be non-negative (got -1)"},
      {{"--metrics-interval-ms", "-10"},
       "--metrics-interval-ms: must be non-negative (got -10)"},
      {{"--metrics-interval-ms", "100"},
       "--metrics-interval-ms: requires --metrics-out"},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string err = dir.file("err" + std::to_string(i));
    std::vector<std::string> args = {"--socket", dir.file("s.sock"),
                                     "--arms", "8"};
    args.insert(args.end(), cases[i].extra.begin(), cases[i].extra.end());
    EXPECT_EQ(run_serve(args, "", err), 2) << "case " << i;
    EXPECT_NE(read_text(err).find(cases[i].expect_in_stderr),
              std::string::npos)
        << "case " << i << " stderr: " << read_text(err);
  }
}

TEST(ServeCliValidation, AcceptedFlagsServeAndWriteFinalSnapshot) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string socket_path = dir.file("s.sock");
  const std::string metrics_path = dir.file("metrics.json");
  const std::string out = dir.file("out");
  const pid_t pid = spawn_serve(
      {"--socket", socket_path, "--arms", "8", "--flush-bytes", "1024",
       "--flush-ms", "5", "--drain-ms", "0", "--metrics-out", metrics_path,
       "--metrics-interval-ms", "20"},
      out);
  // Accepted values sail past validation: the server comes up, and a
  // SIGTERM later it exits 0 having written the final registry snapshot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fs::exists(socket_path) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(socket_path)) << read_text(out);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ::kill(pid, SIGTERM);
  EXPECT_EQ(wait_exit(pid), 0);
  EXPECT_NE(read_text(metrics_path).find("\"schema\": 1"),
            std::string::npos);
  EXPECT_NE(read_text(out).find("served 0 decisions"), std::string::npos);
}

/// Writes a log whose join health is fully known: decisions 1..4, where
/// #1 gets two feedbacks (one duplicate), #2 and #3 are joined, #4 never
/// hears back, and one feedback references a decision never logged.
void write_unhealthy_log(const std::string& path) {
  serve::EventLog log({path, 64 * 1024, 50});
  log.append_decision(1, "a", 0, 0.5);
  log.append_feedback(1, 1.0);
  log.append_feedback(1, 0.25);  // duplicate
  log.append_decision(2, "b", 1, 0.5);
  log.append_feedback(2, 0.0);
  log.append_decision(3, "c", 2, 0.125);
  log.append_feedback(3, 1.0);
  log.append_decision(4, "d", 3, 0.5);  // unjoined
  log.append_feedback(99, 1.0);         // orphan
  log.close();
}

TEST(ServeCliInspect, JsonBlockReportsJoinHealth) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log_path = dir.file("events.ncbl");
  write_unhealthy_log(log_path);

  const std::string out = dir.file("out");
  ASSERT_EQ(run_serve({"--inspect-log", log_path}, out), 0);
  const std::string text = read_text(out);
  // Prose summary line first, then the JSON block; both print the one
  // joined count, which leaves the duplicate feedback out.
  EXPECT_NE(text.find("records=9 decisions=4 feedbacks=5 joined=3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"records\": 9"), std::string::npos);
  EXPECT_NE(text.find("\"decisions\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"feedbacks\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"joined\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"unjoined_decisions\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"orphan_feedbacks\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"duplicate_feedbacks\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"min_propensity\": 0.125"), std::string::npos);
  EXPECT_NE(text.find("\"truncated_tail\": false"), std::string::npos);
}

TEST(ServeCliInspect, TruncatedTailExitsOneAndFlagsIt) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string log_path = dir.file("events.ncbl");
  write_unhealthy_log(log_path);

  // Chop mid-record: the complete prefix still parses, the tail flips the
  // flag and the exit code.
  const std::string bytes = read_text(log_path);
  ASSERT_GT(bytes.size(), 3u);
  const std::string torn_path = dir.file("torn.ncbl");
  std::ofstream(torn_path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 3);

  const std::string out = dir.file("out");
  const std::string err = dir.file("err");
  EXPECT_EQ(run_serve({"--inspect-log", torn_path}, out, err), 1);
  EXPECT_NE(read_text(out).find("\"truncated_tail\": true"),
            std::string::npos);
  EXPECT_NE(read_text(err).find("truncated tail"), std::string::npos);
}

TEST(ServeCliInspect, MissingLogExitsTwo) {
  REQUIRE_BINARY();
  TempDir dir;
  const std::string err = dir.file("err");
  EXPECT_EQ(run_serve({"--inspect-log", dir.file("no-such.ncbl")}, "", err),
            2);
  EXPECT_NE(read_text(err).find("error:"), std::string::npos);
}

}  // namespace
}  // namespace ncb
