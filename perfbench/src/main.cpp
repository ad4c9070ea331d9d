// ncb_perfbench — the repository benchmark's load generator and harness.
//
//   ncb_perfbench --workload serve|sweep|replay --seconds S [--seed N]
//                 [--trace 0|1] [--ncb-serve <path>]
//
// Prints human-readable lines, a `context` line, a `measured` line (every
// metric this run measured, by name), and as its last line one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, every per-layer metric with --trace 1 (0 for rows whose layer
// boundary this workload never crosses). A row of the workload's own that
// was not measured is a correctness violation.
// perfbench/run.py builds this binary and wraps it; see perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "dist/process.hpp"
#include "replay/dispatch.hpp"

namespace {

using namespace perfbench;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifdef NCB_NO_METRICS
constexpr bool kNoMetrics = true;
#else
constexpr bool kNoMetrics = false;
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string first_line_with(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return "";
      std::string value = line.substr(colon + 1);
      const auto start = value.find_first_not_of(" \t");
      return start == std::string::npos ? "" : value.substr(start);
    }
  }
  return "";
}

std::string context_json(const RunOptions& options) {
  std::string loadavg;
  std::ifstream("/proc/loadavg") >> loadavg;
  std::ostringstream out;
  out << "{\"workload\": \"" << options.workload << "\", \"seed\": "
      << options.seed << ", \"seconds\": " << number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"load_threads\": " << options.threads << ", \"cpu\": \""
      << json_escape(first_line_with("/proc/cpuinfo", "model name"))
      << "\", \"loadavg_1m_at_start\": " << (loadavg.empty() ? "0" : loadavg)
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"optimized\": " << (kOptimizedBuild ? "true" : "false")
      << ", \"ncb_no_metrics\": " << (kNoMetrics ? "true" : "false") << "}";
  return out.str();
}

bool own_row(const MetricInfo& info, const std::string& workload) {
  const std::string row = info.workload;
  return row == workload || row == "all";
}

/// Rows of `table` this workload crosses but did not measure (or measured
/// as NaN or infinity, as an empty span set does). failed_ratio is left
/// out: main() derives it from the final counts afterwards.
std::vector<std::string> unmeasured(const std::vector<MetricInfo>& table,
                                    const Result& result,
                                    const std::string& workload) {
  std::vector<std::string> names;
  for (const MetricInfo& info : table) {
    if (!own_row(info, workload) || info.name == "failed_ratio") continue;
    const auto it = result.metrics.find(info.name);
    if (it == result.metrics.end()) {
      names.push_back(info.name);
    } else if (!std::isfinite(it->second)) {
      names.push_back(info.name + " (not finite)");
    }
  }
  return names;
}

std::string metric_value(const Result& result, const std::string& name) {
  const auto it = result.metrics.find(name);
  if (it == result.metrics.end()) return "0";  // not this workload's row
  return std::isfinite(it->second) ? number(it->second) : "0";
}

std::string metrics_json(const std::vector<MetricInfo>& table,
                         const Result& result) {
  std::string out = "{";
  for (const MetricInfo& info : table) {
    out += out.size() == 1 ? "" : ", ";
    out += "\"" + info.name + "\": {\"value\": " +
           metric_value(result, info.name) + ", \"unit\": \"" + info.unit +
           "\"}";
  }
  return out + "}";
}

/// Every measured value by name (null where not finite).
std::string measured_json(const Result& result) {
  std::string out = "{";
  for (const auto& [name, value] : result.metrics) {
    out += out.size() == 1 ? "" : ", ";
    out += "\"" + name + "\": " +
           (std::isfinite(value) ? number(value) : "null");
  }
  return out + "}";
}

void print_tagged(const std::vector<MetricInfo>& table, const Result& result,
                  const std::string& workload) {
  for (const MetricInfo& info : table) {
    const auto it = result.metrics.find(info.name);
    std::printf("  %-40s %16s %-6s layer=%-8s workload=%s%s\n",
                info.name.c_str(),
                it == result.metrics.end() ? "-" : number(it->second).c_str(),
                info.unit, info.layer, info.workload,
                own_row(info, workload) ? "" : " (not exercised here)");
  }
}

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Re-exec'd by the replay workload's ProcessTransport as a worker.
    if (has_flag(argc, argv, "--worker-fd")) {
      ncb::replay::ReplayWorkerOptions worker;
      worker.fd = std::stoi(arg_value(argc, argv, "--worker-fd", "-1"));
      return ncb::replay::run_replay_worker(worker);
    }

    RunOptions options;
    options.workload = arg_value(argc, argv, "--workload", "");
    options.seed = std::stoull(
        arg_value(argc, argv, "--seed", std::to_string(kDefaultSeed)));
    const std::string seconds = arg_value(argc, argv, "--seconds", "");
    if (seconds.empty()) throw std::invalid_argument("--seconds is required");
    options.seconds = std::stod(seconds);
    options.trace = arg_value(argc, argv, "--trace", "0") == "1";
    options.ncb_serve = arg_value(argc, argv, "--ncb-serve", "");
    options.self_exe = ncb::dist::self_exe_path(argv[0]);
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    options.threads =
        static_cast<unsigned>(std::max(1L, std::min(nproc, 4L)));
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }

    std::printf("context: %s\n", context_json(options).c_str());
    if (!kOptimizedBuild) {
      std::fprintf(stderr,
                   "ncb_perfbench: refusing to report from a non-optimized "
                   "build (build type %s)\n",
                   PERFBENCH_BUILD_TYPE);
      return 3;
    }

    const std::uint64_t steal_start = steal_ticks();
    const std::int64_t start_ns = now_ns();
    Result result;
    if (options.workload == "serve") {
      result = run_serve(options);
    } else if (options.workload == "sweep") {
      result = run_sweep(options);
    } else if (options.workload == "replay") {
      result = run_replay(options);
    } else {
      throw std::invalid_argument("--workload must be serve, sweep or replay");
    }
    // Share of the machine's CPU time the host took away during the run.
    result.set("host.steal_share",
               static_cast<double>(steal_ticks() - steal_start) /
                   (static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                    static_cast<double>(nproc) *
                    static_cast<double>(now_ns() - start_ns) / 1e9));
    std::vector<std::string> missing =
        unmeasured(end_to_end_metrics(), result, options.workload);
    if (options.trace) {
      for (std::string& name :
           unmeasured(per_layer_metrics(), result, options.workload)) {
        missing.push_back(std::move(name));
      }
    }
    for (const std::string& name : missing) {
      result.violation("metric not measured: " + name);
    }
    result.set("failed_ratio",
               result.attempted == 0
                   ? 1.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted));

    std::printf("measured: %s\n", measured_json(result).c_str());
    std::printf("per-layer metrics (workload %s):\n", options.workload.c_str());
    print_tagged(per_layer_metrics(), result, options.workload);
    for (const std::string& what : result.violations) {
      std::printf("VIOLATION: %s\n", what.c_str());
    }
    const std::string metrics = metrics_json(
        options.trace ? per_layer_metrics() : end_to_end_metrics(), result);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        result.violations.empty() ? "true" : "false",
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ncb_perfbench: error: %s\n", e.what());
    return 1;
  }
}
