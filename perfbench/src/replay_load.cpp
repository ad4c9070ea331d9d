// replay workload: re-pricing a candidate panel, as analysts do. Set-up
// drives an in-process DecisionEngine (the serve configuration, lockstep
// decide → report) to write a 200k-decision event log from the seed. The
// timed part scans the log and scores the panel {logging policy,
// eps-greedy:eps=0.1, ucb1} sharded over two spawned worker processes
// through replay::run_distributed_panel. The traced run then repeats each
// step in-process (scan, join, panel_base, score_candidate per candidate)
// to split the wall time by layer.
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>

#include "common.hpp"
#include "net/transport.hpp"
#include "replay/dispatch.hpp"
#include "replay/replay.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kDecisions = 200000;
constexpr std::size_t kWorkers = 2;
constexpr int kSetupRepetitions = 9;
constexpr double kEpsilon = 0.05;
const char* const kLoggingPolicy = "eps-greedy:eps=0";

struct Candidate {
  const char* label;
  const char* spec;
};
const Candidate kPanel[] = {
    {"logging", "eps-greedy:eps=0"},
    {"eps01", "eps-greedy:eps=0.1"},
    {"ucb1", "ucb1"},
};

// panel_digest() of the panel at kDefaultSeed, as the library computed it
// when the benchmark was defined.
const char* const kPinnedPanelDigest = "6c8f7e7a49ad93a4";

ncb::ExperimentConfig graph_config(std::uint64_t seed) {
  ncb::ExperimentConfig config;
  config.graph_family = ncb::GraphFamily::kErdosRenyi;
  config.num_arms = 10000;
  config.edge_probability = 0.001;
  config.seed = seed;
  return config;
}

/// Writes the log set-up produces; returns the digest of its bytes.
std::uint64_t generate_log(const std::string& path, const ncb::Graph& graph,
                           const std::vector<double>& means,
                           std::uint64_t seed) {
  {
    ncb::serve::EventLog::Options log_options;
    log_options.path = path;
    ncb::serve::EventLog log(log_options);
    ncb::serve::EngineOptions engine_options;
    engine_options.policy_spec = kLoggingPolicy;
    engine_options.epsilon = kEpsilon;
    engine_options.seed = seed;
    ncb::serve::DecisionEngine engine(graph, engine_options, &log);
    RequestStream stream(seed);
    for (std::size_t i = 0; i < kDecisions; ++i) {
      const Request r = stream.next();
      const ncb::serve::Decision d = engine.decide(user_key(r.key), i);
      if (!r.lose) {
        engine.report(d.decision_id, noisy_reward(means[d.action], r.noise));
      }
    }
    log.close();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Digest d;
  d.add_string(bytes);
  return d.value();
}

void add_stat(Digest& d, const ncb::RunningStat& s) {
  d.add_u64(s.count());
  d.add_double(s.mean());
  d.add_double(s.m2());
  d.add_double(s.min());
  d.add_double(s.max());
}

std::uint64_t panel_digest(const ncb::replay::PanelResult& panel) {
  Digest d;
  d.add_u64(panel.decisions);
  d.add_u64(panel.feedbacks);
  d.add_u64(panel.joined);
  d.add_double(panel.min_propensity);
  d.add_double(panel.empirical_mean);
  d.add_double(panel.empirical_variance);
  for (const double m : panel.arm_model) d.add_double(m);
  d.add_double(panel.model_arm_average);
  for (const ncb::replay::CandidateSummary& c : panel.candidates) {
    d.add_string(c.spec);
    d.add_u64(c.decisions);
    d.add_u64(c.events);
    d.add_u64(c.matched);
    add_stat(d, c.ips_stat);
    add_stat(d, c.dr_stat);
    d.add_double(c.weight_sum);
    d.add_double(c.weight_sq_sum);
    d.add_double(c.weighted_reward_sum);
    d.add_double(c.max_weight);
    d.add_double(c.ips_mean);
    d.add_double(c.snips);
    d.add_double(c.dr_mean);
    d.add_double(c.ess);
  }
  return d.value();
}

std::vector<std::string> panel_specs() {
  std::vector<std::string> specs;
  for (const Candidate& c : kPanel) specs.emplace_back(c.spec);
  return specs;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace

Result run_replay(const RunOptions& options) {
  Result result;
  WorkDir dir;
  const std::string log_path = dir.file("replay.ncbl");
  const ncb::ExperimentConfig config = graph_config(options.seed);
  RequestStream warm(options.seed);  // builds the Zipf table outside set-up
  (void)warm;

  const ncb::Graph graph = ncb::build_graph(config);
  const std::vector<double> means = ncb::build_instance(config).means();

  // Set-up is the log generation, timed several times (the median is
  // reported); every generation must write the same bytes.
  Samples setup_s;
  std::uint64_t log_digest = 0;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t digest = generate_log(log_path, graph, means,
                                              options.seed);
    setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    if (i > 0 && digest != log_digest) {
      result.violation("set-up wrote a different event log on repetition");
    }
    log_digest = digest;
  }
  result.set("setup_s", setup_s.median());

  ncb::replay::ReplayOptions replay_options;
  replay_options.epsilon = kEpsilon;
  replay_options.seed = options.seed;
  const std::vector<std::string> specs = panel_specs();

  reset_peak_rss();
  Samples panel_ms;
  Samples events_per_s;
  std::uint64_t first_digest = 0;
  std::uint64_t bytes_out = 0;
  const std::int64_t measure_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  // Whole panels, at least two, as many as fit in the budget.
  for (int round = 0;; ++round) {
    const std::int64_t t0 = now_ns();
    const ncb::serve::EventLogScan scan = ncb::serve::read_event_log(log_path);
    ncb::net::ProcessTransport transport({options.self_exe});
    ncb::replay::ReplayDispatchOptions dispatch;
    dispatch.transport = &transport;
    dispatch.workers = kWorkers;
    dispatch.graph_config = &config;
    const ncb::replay::DistPanelSummary summary =
        ncb::replay::run_distributed_panel(graph, scan, specs, replay_options,
                                           dispatch);
    const double ms = ms_since(t0);
    const ncb::replay::PanelResult& panel = summary.panel;
    panel_ms.add(ms);
    events_per_s.add(static_cast<double>(panel.joined) *
                     static_cast<double>(specs.size()) / (ms / 1e3));
    result.attempted += specs.size();

    if (panel.decisions != kDecisions) {
      result.violation("panel saw " + std::to_string(panel.decisions) +
                       " decisions, log holds " + std::to_string(kDecisions));
    }
    if (panel.candidates.size() != specs.size()) {
      result.violation("panel is missing candidates");
    } else if (!same_bits(panel.candidates[0].ips_mean,
                          panel.empirical_mean)) {
      result.violation("logging identity broken: IPS of the logging policy "
                       "differs from the empirical mean");
    }
    if (summary.requeues != 0) {
      result.violation("requeued " + std::to_string(summary.requeues) +
                       " candidates with no worker lost");
    }
    const std::uint64_t digest = panel_digest(panel);
    if (round == 0) {
      first_digest = digest;
      std::printf("replay: panel digest %s\n", hex64(digest).c_str());
      if (options.seed == kDefaultSeed &&
          hex64(digest) != kPinnedPanelDigest) {
        result.violation("panel digest " + hex64(digest) +
                         " differs from the pinned " + kPinnedPanelDigest);
      }
      for (std::size_t c = 0; c < panel.candidates.size(); ++c) {
        const auto& cand = panel.candidates[c];
        result.set(std::string("replay.match_ratio.") + kPanel[c].label,
                   cand.events == 0 ? 0.0
                                    : static_cast<double>(cand.matched) /
                                          static_cast<double>(cand.events));
      }
      result.set("replay.input.min_propensity", panel.min_propensity);
      result.set("replay.requeues", static_cast<double>(summary.requeues));
      for (const auto& w : summary.workers) bytes_out += w.bytes_out;
    } else if (digest != first_digest) {
      result.violation("distributed panel not byte-identical across runs");
    }
    const std::int64_t elapsed = now_ns() - measure_start;
    if (round >= 1 && elapsed + elapsed / (round + 1) > budget_ns) break;
  }

  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double worker_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  result.set("peak_rss_mb",
             peak_rss_mb(::getpid()) + static_cast<double>(kWorkers) * worker_mb);
  result.set("throughput_per_s", events_per_s.median());
  result.set("latency_p50_us", panel_ms.median() * 1e3);
  result.set("net.bytes_out", static_cast<double>(bytes_out));

  if (options.trace) {
    std::int64_t t0 = now_ns();
    const ncb::serve::EventLogScan scan = ncb::serve::read_event_log(log_path);
    result.set("serve.log.scan_ms", ms_since(t0));
    t0 = now_ns();
    const ncb::serve::EventLogJoin join = ncb::serve::join_event_log(scan);
    result.set("serve.log.join_ms", ms_since(t0));
    t0 = now_ns();
    ncb::replay::PanelResult local = ncb::replay::panel_base(graph, scan);
    const double base_ms = ms_since(t0);
    result.set("replay.panel_base_ms", base_ms);
    double score_sum = 0.0;
    double score_max = 0.0;
    for (const Candidate& c : kPanel) {
      t0 = now_ns();
      ncb::replay::CandidateSummary summary = ncb::replay::score_candidate(
          graph, scan.records, c.spec, replay_options, local.arm_model,
          local.model_arm_average);
      ncb::replay::finalize_candidate(summary);
      const double ms = ms_since(t0);
      result.set(std::string("replay.score_ms.") + c.label, ms);
      score_sum += ms;
      score_max = std::max(score_max, ms);
      local.candidates.push_back(std::move(summary));
    }
    ++result.attempted;
    if (panel_digest(local) != first_digest) {
      result.violation("distributed panel differs from the in-process panel");
    }
    if (join.decisions != kDecisions) {
      result.violation("join saw a different decision count");
    }
    const double e2e_ms = panel_ms.median();
    result.set("replay.worker_busy_ratio",
               score_sum / (static_cast<double>(kWorkers) * e2e_ms));
    result.set("replay.dispatch_overhead_ms",
               e2e_ms - result.metrics["serve.log.scan_ms"] -
                   result.metrics["serve.log.join_ms"] - base_ms - score_max);
  }
  return result;
}

}  // namespace perfbench
