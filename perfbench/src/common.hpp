// Shared measurement helpers for the ncb_perfbench workloads: clocks, the
// benchmark's own input RNG and Zipf sampler, exact-percentile sample sets,
// process memory probes, digests, and the metric tables every run reports.
//
// Everything here lives outside the library: the workloads time calls into
// the library's public functions and feed it only generated inputs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Seed used when --seed is not given; the pinned digests are for it.
inline constexpr std::uint64_t kDefaultSeed = 20170605;

/// Input generator owned by the benchmark (xoshiro256** seeded through
/// splitmix64), so a change to the library's RNG never changes the inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t s_[4];
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::uint32_t sample(InputRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One generated decision request of the serve/replay traffic model.
struct Request {
  std::uint32_t key = 0;  ///< Zipf(1.0) rank over kUserKeys user keys.
  bool lose = false;      ///< Its feedback is never sent (kLostShare).
  double noise = 0.0;     ///< Uniform draw for the noisy reward.
};

inline constexpr std::size_t kUserKeys = 1000000;
inline constexpr double kLostShare = 0.02;

/// The request stream for a seed: the same seed gives the same requests.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed);
  Request next();

 private:
  InputRng rng_;
};

[[nodiscard]] std::string user_key(std::uint32_t rank);
/// The `noisy` reward model: the arm mean ± 0.1 uniform, clamped to [0, 1].
[[nodiscard]] double noisy_reward(double mean, double noise);

/// Raw samples with exact quantiles (type-7 interpolation).
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// quantile() and max() are NaN when empty, so a span that never ran
  /// reads as not measured rather than as 0.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double max() const;

 private:
  std::vector<double> values_;
};

/// CPU time the hypervisor has stolen from this machine so far: the
/// `steal` field of /proc/stat, in clock ticks summed over all CPUs (0
/// where the kernel does not report it).
[[nodiscard]] std::uint64_t steal_ticks();

/// Values measured over consecutive windows of a run, each with the CPU
/// time the host stole while it lasted. On a shared VM a stolen stretch
/// stalls the program's threads and measures the host, not the program,
/// so median() is taken over the windows that lost no more steal per
/// second than the median window (every window when nothing was stolen).
class StealWindows {
 public:
  void add(double value, std::uint64_t steal, double seconds);
  /// NaN when empty, as Samples.
  [[nodiscard]] double median() const;
  [[nodiscard]] std::size_t size() const { return windows_.size(); }
  /// How many windows median() uses.
  [[nodiscard]] std::size_t kept() const { return kept_values().size(); }

 private:
  [[nodiscard]] Samples kept_values() const;

  struct Window {
    double value;
    double steal_per_s;
  };
  std::vector<Window> windows_;
};

/// FNV-1a over the exact bytes of what is added.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  void add_string(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);
/// Resets this process's VmHWM to its current RSS (Linux clear_refs "5").
void reset_peak_rss();

/// Per-run scratch directory under the working directory (which is the
/// checkout root); removed again by the destructor. Relative paths keep
/// AF_UNIX socket paths short however deep the checkout is.
class WorkDir {
 public:
  WorkDir();
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string ncb_serve;  ///< Path of the ncb_serve binary (serve only).
  std::string self_exe;   ///< This binary, re-exec'd as a replay worker.
  unsigned threads = 1;   ///< Load threads/connections: min(nproc, 4).
};

/// What a workload hands back: raw metric values by name plus the
/// operation and failure counts. main() turns it into the output line.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a correctness violation covering `count` failed operations.
  void violation(const std::string& what, std::uint64_t count = 1);
};

/// One entry of the metric tables (BENCHMARK.json mirrors them).
struct MetricInfo {
  std::string name;
  const char* unit;
  const char* better;
  const char* layer;     ///< Module under src/ (or "e2e").
  const char* workload;  ///< Workload that exercises it ("all" for e2e).
};

[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

Result run_serve(const RunOptions& options);
Result run_sweep(const RunOptions& options);
Result run_replay(const RunOptions& options);

}  // namespace perfbench
