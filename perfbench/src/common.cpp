#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

InputRng::InputRng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t& word : s_) word = splitmix64(x);
}

std::uint64_t InputRng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t Zipf::sample(InputRng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(it - cdf_.begin());
  return static_cast<std::uint32_t>(std::min(rank, cdf_.size() - 1));
}

namespace {

const Zipf& user_zipf() {
  static const Zipf zipf(kUserKeys, 1.0);
  return zipf;
}

}  // namespace

RequestStream::RequestStream(std::uint64_t seed) : rng_(seed) {
  (void)user_zipf();
}

Request RequestStream::next() {
  Request r;
  r.key = user_zipf().sample(rng_);
  r.lose = rng_.uniform() < kLostShare;
  r.noise = rng_.uniform();
  return r;
}

std::string user_key(std::uint32_t rank) { return "u" + std::to_string(rank); }

double noisy_reward(double mean, double noise) {
  return std::min(1.0, std::max(0.0, mean + (noise - 0.5) * 0.2));
}

double Samples::quantile(double q) const {
  if (values_.empty()) return std::nan("");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::max() const {
  return values_.empty() ? std::nan("")
                         : *std::max_element(values_.begin(), values_.end());
}

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // "cpu" user nice system idle iowait irq softirq steal ...
  std::uint64_t fields[8] = {};
  in >> cpu;
  for (std::uint64_t& field : fields) in >> field;
  return in && cpu == "cpu" ? fields[7] : 0;
}

void StealWindows::add(double value, std::uint64_t steal, double seconds) {
  windows_.push_back({value, static_cast<double>(steal) / seconds});
}

Samples StealWindows::kept_values() const {
  Samples rates;
  for (const Window& w : windows_) rates.add(w.steal_per_s);
  const double cut = rates.median();
  Samples kept;
  for (const Window& w : windows_) {
    if (w.steal_per_s <= cut) kept.add(w.value);
  }
  return kept;
}

double StealWindows::median() const { return kept_values().median(); }

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

void Digest::add_string(const std::string& s) {
  add_u64(s.size());
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

WorkDir::WorkDir() : path_(".bench_run/" + std::to_string(::getpid())) {
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void Result::violation(const std::string& what, std::uint64_t count) {
  violations.push_back(what);
  failed += count;
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> table = {
      {"setup_s", "s", "lower", "e2e", "all"},
      {"peak_rss_mb", "MiB", "lower", "e2e", "all"},
      {"throughput_per_s", "1/s", "higher", "e2e", "all"},
      {"latency_p50_us", "us", "lower", "e2e", "all"},
  };
  return table;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> table = [] {
    std::vector<MetricInfo> t = {
        {"failed_ratio", "ratio", "lower", "all", "all"},
        {"host.steal_share", "ratio", "lower", "host", "all"},
        // serve
        {"serve.latency_p99_us", "us", "lower", "serve", "serve"},
        {"dist.codec_ns", "ns", "lower", "dist", "serve"},
        {"serve.engine.decide_ns.p50", "ns", "lower", "serve", "serve"},
        {"serve.engine.decide_ns.p99", "ns", "lower", "serve", "serve"},
        {"serve.engine.report_ns.p50", "ns", "lower", "serve", "serve"},
        {"serve.engine.report_ns.p99", "ns", "lower", "serve", "serve"},
        {"serve.log.append_ns.p50", "ns", "lower", "serve", "serve"},
        {"serve.log.flushes", "count", "lower", "serve", "serve"},
        {"serve.log.flush_stalls", "count", "lower", "serve", "serve"},
        {"serve.log.bytes_per_request", "B", "lower", "serve", "serve"},
        {"core.serve.select_ns.p50", "ns", "lower", "core", "serve"},
        {"core.serve.select_ns.p99", "ns", "lower", "core", "serve"},
        {"core.serve.observe_ns.p50", "ns", "lower", "core", "serve"},
        {"serve.reactor.residual_us.p50", "us", "lower", "serve", "serve"},
        {"serve.engine.pending_end", "count", "lower", "serve", "serve"},
        {"serve.keys.distinct", "count", "lower", "serve", "serve"},
        {"serve.gen.lag_us.p99", "us", "lower", "load", "serve"},
        {"serve.gen.late_requests", "count", "lower", "load", "serve"},
        {"serve.input.first_seen_key_share", "ratio", "lower", "input",
         "serve"},
        {"serve.input.lost_feedback_share", "ratio", "lower", "input",
         "serve"},
        // sweep (per-scenario rows are appended below)
        {"graph.build_ms", "ms", "lower", "graph", "sweep"},
        {"strategy.family_build_ms", "ms", "lower", "strategy", "sweep"},
        {"strategy.family_size", "count", "lower", "strategy", "sweep"},
        {"sweep.input.max_Yx", "count", "lower", "input", "sweep"},
        {"exp.pool_busy_ratio", "ratio", "higher", "exp", "sweep"},
        {"exp.shard_tail_ratio", "ratio", "lower", "exp", "sweep"},
        // replay
        {"serve.log.scan_ms", "ms", "lower", "serve", "replay"},
        {"serve.log.join_ms", "ms", "lower", "serve", "replay"},
        {"replay.panel_base_ms", "ms", "lower", "replay", "replay"},
        {"replay.score_ms.logging", "ms", "lower", "replay", "replay"},
        {"replay.score_ms.eps01", "ms", "lower", "replay", "replay"},
        {"replay.score_ms.ucb1", "ms", "lower", "replay", "replay"},
        {"replay.match_ratio.logging", "ratio", "higher", "core", "replay"},
        {"replay.match_ratio.eps01", "ratio", "higher", "core", "replay"},
        {"replay.match_ratio.ucb1", "ratio", "higher", "core", "replay"},
        {"net.bytes_out", "B", "lower", "net", "replay"},
        {"replay.worker_busy_ratio", "ratio", "higher", "dist", "replay"},
        {"replay.dispatch_overhead_ms", "ms", "lower", "replay", "replay"},
        {"replay.requeues", "count", "lower", "net", "replay"},
        {"replay.input.min_propensity", "ratio", "higher", "input", "replay"},
    };
    for (const std::string s : {"sso", "sso_k1e4", "cso", "ssr", "csr"}) {
      t.push_back({"core." + s + ".select_ns.p50", "ns", "lower", "core",
                   "sweep"});
      t.push_back({"core." + s + ".observe_ns.p50", "ns", "lower", "core",
                   "sweep"});
      t.push_back({"core." + s + ".obs_per_slot", "count", "lower", "core",
                   "sweep"});
      t.push_back({"sim." + s + ".runner_self_ns", "ns", "lower", "sim",
                   "sweep"});
      t.push_back({"sweep." + s + "_slots_per_s", "1/s", "higher", "exp",
                   "sweep"});
      t.push_back({"sweep.input.mean_closed_nbhd." + s, "count", "lower",
                   "input", "sweep"});
    }
    return t;
  }();
  return table;
}

}  // namespace perfbench
