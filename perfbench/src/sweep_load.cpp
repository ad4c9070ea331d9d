// sweep workload: the paper's figures as researchers reproduce them. Each
// scenario is one SweepSpec through exp::run_sweep on a ThreadPool of the
// load-thread count; instances and strategy families are built up front
// (set-up) and handed in through a pre-warmed InstanceCache, so the timed
// job wall holds only replications. The traced run drives the same jobs
// through exp::run_sharded_* with a forwarding decorator around the
// registry-built policy, timing every select/observe from outside.
#include <unistd.h>

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "core/policy_registry.hpp"
#include "exp/shard_scheduler.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/experiment.hpp"
#include "sim/thread_pool.hpp"

namespace perfbench {

namespace {

using ncb::Scenario;

struct ScenarioDef {
  const char* name;
  Scenario scenario;
  std::vector<std::string> policies;
  std::size_t arms;
  double edge_probability;
  ncb::TimeSlot horizon;
  std::size_t instances;     ///< Instances (graph + means) per round.
  std::size_t replications;  ///< Per instance.
};

// The paper's §VII figure instances (Bernoulli arms). Each scenario runs
// on several instances drawn from the seed, so how much work one random
// graph happens to need averages out; replications are sized so every
// scenario runs for about a second per round on 4 threads (sso_k1e4, one
// instance with one replication per thread, takes about four). K = 100,
// M = 3 for CSO/CSR is avoided on purpose (|F| ≈ 1.7·10^5 makes one job
// take minutes).
const std::vector<ScenarioDef>& scenarios() {
  static const std::vector<ScenarioDef> defs = {
      {"sso", Scenario::kSso, {"dfl-sso", "moss"}, 100, 0.3, 10000, 4, 8},
      {"sso_k1e4", Scenario::kSso, {"dfl-sso"}, 10000, 0.002, 20000, 1, 4},
      {"cso", Scenario::kCso, {"dfl-cso"}, 20, 0.3, 10000, 4, 8},
      {"ssr", Scenario::kSsr, {"dfl-ssr"}, 100, 0.3, 10000, 4, 8},
      {"csr", Scenario::kCsr, {"dfl-csr"}, 20, 0.3, 10000, 4, 4},
  };
  return defs;
}

struct Pin {
  const char* extremes;  ///< Digest of extremes_digest() over instances.
  double mean;           ///< Sum over instances of the mean final regret.
};

// Every job at kDefaultSeed (all its instances), as the library computed it
// when the benchmark was defined. A change to any policy's arithmetic, the runner or the seed
// derivation breaks these; the order replications are merged in does not.
const std::map<std::string, Pin>& pinned() {
  static const std::map<std::string, Pin> pins = {
      {"sso:dfl-sso@er,K=100,p=0.3,n=10000",
       {"c7c5326a7f24b867", 253.10424149862035}},
      {"sso:moss@er,K=100,p=0.3,n=10000",
       {"798cf1bac851dbcd", 1996.8542414985423}},
      {"sso:dfl-sso@er,K=10000,p=0.002,n=20000",
       {"bc405445eebcbb3d", 1942.989754106387}},
      {"cso:dfl-cso@er,K=20,p=0.3,n=10000,M=3",
       {"722609def8c7f7a6", 854.9920062630863}},
      {"ssr:dfl-ssr@er,K=100,p=0.3,n=10000",
       {"b9f6a23a47b650d6", 9031.4212091281497}},
      {"csr:dfl-csr@er,K=20,p=0.3,n=10000,M=3",
       {"29ea7283ed58805d", 1864.1638609214074}},
  };
  return pins;
}

ncb::exp::SweepSpec make_spec(const ScenarioDef& def, std::uint64_t seed) {
  ncb::exp::SweepSpec spec;
  spec.name = def.name;
  spec.scenario = def.scenario;
  spec.policies = def.policies;
  spec.arms = {def.arms};
  spec.edge_probabilities = {def.edge_probability};
  spec.horizons = {def.horizon};
  spec.replications = def.replications;
  spec.seed = seed;
  spec.strategy_size = 3;
  return spec;
}

/// Digest of the exact parts of a job's final cumulative-regret
/// distribution: the count and the min and max replication, which are
/// bit-identical however run_sweep or run_sharded_* merge replications.
std::uint64_t extremes_digest(const ncb::RunningStat& f) {
  Digest d;
  d.add_u64(f.count());
  d.add_double(f.min());
  d.add_double(f.max());
  return d.value();
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  return seed + 1000003ULL * instance;
}

/// One scenario instance: its spec and the instance built at set-up.
struct Unit {
  const ScenarioDef* def = nullptr;
  ncb::exp::SweepSpec spec;
  ncb::exp::InstanceCache cache;
};

/// Everything built before the first timed job.
struct Prepared {
  std::vector<Unit> units;  ///< Scenario order, instances in order.
  double seconds = 0.0;     ///< Wall time of the builds the jobs use.
};

Prepared prepare(std::uint64_t seed) {
  Prepared p;
  const std::int64_t t0 = now_ns();
  for (const ScenarioDef& def : scenarios()) {
    for (std::size_t j = 0; j < def.instances; ++j) {
      Unit unit;
      unit.def = &def;
      unit.spec = make_spec(def, instance_seed(seed, j));
      (void)unit.cache.get(unit.spec.expand().front().config,
                           ncb::is_combinatorial(def.scenario));
      p.units.push_back(std::move(unit));
    }
  }
  p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return p;
}

/// Graph and strategy-family builds timed on their own (the instance
/// cache builds both at once): total ms over every unit.
void time_builds(const Prepared& p, Result& result) {
  double graph_ms = 0.0;
  double family_ms = 0.0;
  for (const Unit& unit : p.units) {
    const ncb::ExperimentConfig config = unit.spec.expand().front().config;
    const std::int64_t t0 = now_ns();
    const ncb::Graph graph = ncb::build_graph(config);
    graph_ms += static_cast<double>(now_ns() - t0) / 1e6;
    if (ncb::is_combinatorial(unit.def->scenario)) {
      const std::int64_t f0 = now_ns();
      (void)ncb::build_family(config, graph);
      family_ms += static_cast<double>(now_ns() - f0) / 1e6;
    }
  }
  result.set("graph.build_ms", graph_ms);
  result.set("strategy.family_build_ms", family_ms);
}

// ------------------------------------------------------------- tracing ---

/// Per-scenario span sink shared by the decorators of one job.
struct ScenarioTrace {
  std::mutex mutex;
  Samples select_ns;
  Samples observe_ns;
  double observations = 0.0;
  double observe_calls = 0.0;
  double slots = 0.0;
  Samples rep_ns;      ///< Wall time of each replication (one shard each).
  Samples job_rep_ns;  ///< The current job's replications only.
  double select_total_ns = 0.0;
  double observe_total_ns = 0.0;
};

/// One replication's spans, kept thread-local until the decorator dies.
class LocalSpans {
 public:
  LocalSpans() {
    select_ns_.reserve(1 << 15);
    observe_ns_.reserve(1 << 15);
  }

  template <typename Fn>
  auto select(Fn&& fn) {
    const std::int64_t t0 = now_ns();
    const auto chosen = fn();
    const auto dt = static_cast<double>(now_ns() - t0);
    select_ns_.push_back(static_cast<float>(dt));
    select_total_ += dt;
    return chosen;
  }

  template <typename Fn>
  void observe(Fn&& fn, std::size_t observations) {
    const std::int64_t t0 = now_ns();
    fn();
    const auto dt = static_cast<double>(now_ns() - t0);
    observe_ns_.push_back(static_cast<float>(dt));
    observe_total_ += dt;
    observations_ += static_cast<double>(observations);
  }

  void flush(ScenarioTrace& trace) const {
    const auto rep = static_cast<double>(now_ns() - born_ns_);
    std::lock_guard<std::mutex> lock(trace.mutex);
    for (const float v : select_ns_) trace.select_ns.add(v);
    for (const float v : observe_ns_) trace.observe_ns.add(v);
    trace.observations += observations_;
    trace.observe_calls += static_cast<double>(observe_ns_.size());
    trace.slots += static_cast<double>(select_ns_.size());
    trace.rep_ns.add(rep);
    trace.job_rep_ns.add(rep);
    trace.select_total_ns += select_total_;
    trace.observe_total_ns += observe_total_;
  }

 private:
  std::vector<float> select_ns_;
  std::vector<float> observe_ns_;
  double observations_ = 0.0;
  double select_total_ = 0.0;
  double observe_total_ = 0.0;
  std::int64_t born_ns_ = now_ns();
};

/// Forwarding decorators: the registry-built policy, with every select and
/// observe timed from outside.
class TracedSingle final : public ncb::SinglePlayPolicy {
 public:
  TracedSingle(std::unique_ptr<ncb::SinglePlayPolicy> inner,
               ScenarioTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TracedSingle() override { spans_.flush(trace_); }
  TracedSingle(const TracedSingle&) = delete;
  TracedSingle& operator=(const TracedSingle&) = delete;

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  ncb::ScenarioMask scenarios() const override { return inner_->scenarios(); }
  void reset(const ncb::Graph& graph) override { inner_->reset(graph); }
  ncb::ArmId select(ncb::TimeSlot t) override {
    return spans_.select([&] { return inner_->select(t); });
  }
  void observe(ncb::ArmId played, ncb::TimeSlot t,
               ncb::ObservationSpan observations) override {
    spans_.observe([&] { inner_->observe(played, t, observations); },
                   observations.size());
  }

 private:
  std::unique_ptr<ncb::SinglePlayPolicy> inner_;
  ScenarioTrace& trace_;
  LocalSpans spans_;
};

class TracedCombinatorial final : public ncb::CombinatorialPolicy {
 public:
  TracedCombinatorial(std::unique_ptr<ncb::CombinatorialPolicy> inner,
                      ScenarioTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TracedCombinatorial() override { spans_.flush(trace_); }
  TracedCombinatorial(const TracedCombinatorial&) = delete;
  TracedCombinatorial& operator=(const TracedCombinatorial&) = delete;

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  ncb::ScenarioMask scenarios() const override { return inner_->scenarios(); }
  void reset() override { inner_->reset(); }
  ncb::StrategyId select(ncb::TimeSlot t) override {
    return spans_.select([&] { return inner_->select(t); });
  }
  void observe(ncb::StrategyId played, ncb::TimeSlot t,
               ncb::ObservationSpan observations) override {
    spans_.observe([&] { inner_->observe(played, t, observations); },
                   observations.size());
  }

 private:
  std::unique_ptr<ncb::CombinatorialPolicy> inner_;
  ScenarioTrace& trace_;
  LocalSpans spans_;
};

/// One traced job through run_sharded_*; returns its final-regret
/// distribution (same seeds, so the same replications as run_sweep).
ncb::RunningStat run_traced_job(const ncb::exp::SweepJob& job,
                             const ncb::exp::InstanceCache::Entry& built,
                             ncb::ThreadPool& pool, ScenarioTrace& trace) {
  ncb::ReplicationOptions options;
  options.replications = job.config.replications;
  options.master_seed = job.config.seed;
  options.runner.horizon = job.config.horizon;
  options.pool = &pool;
  const ncb::PolicyRegistry& registry = ncb::PolicyRegistry::instance();
  ncb::ReplicatedResult result;
  if (built.family) {
    const auto family = built.family;
    result = ncb::exp::run_sharded_combinatorial(
        [&](std::uint64_t seed) -> std::unique_ptr<ncb::CombinatorialPolicy> {
          return std::make_unique<TracedCombinatorial>(
              registry.make_combinatorial(job.policy, family, seed), trace);
        },
        *built.instance, *family, job.scenario, options);
  } else {
    result = ncb::exp::run_sharded_single(
        [&](std::uint64_t seed) -> std::unique_ptr<ncb::SinglePlayPolicy> {
          return std::make_unique<TracedSingle>(
              registry.make_single_play(job.policy, job.config.horizon, seed),
              trace);
        },
        *built.instance, job.scenario, options);
  }
  return result.final_cumulative;
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace

Result run_sweep(const RunOptions& options) {
  Result result;

  // Set-up, many times: one build takes tens of milliseconds, and the
  // machine's speed shifts over fractions of a second, so the median is
  // taken over a few seconds of builds. The previous build is freed first,
  // so every build starts from the same heap. The last build is the one
  // the jobs use.
  Samples setup_s;
  Prepared prepared;
  for (int i = 0; i < 100; ++i) {
    prepared = Prepared();
    prepared = prepare(options.seed);
    setup_s.add(prepared.seconds);
  }
  result.set("setup_s", setup_s.median());
  if (options.trace) time_builds(prepared, result);
  for (Unit& unit : prepared.units) {
    if (unit.spec.seed != options.seed) continue;  // first instance only
    const auto& entry = unit.cache.get(unit.spec.expand().front().config,
                                       ncb::is_combinatorial(unit.def->scenario));
    const ncb::Graph& graph = entry.instance->graph();
    double closed = 0.0;
    for (std::size_t a = 0; a < graph.num_vertices(); ++a) {
      closed += static_cast<double>(
          graph.closed_neighborhood(static_cast<ncb::ArmId>(a)).size());
    }
    result.set(std::string("sweep.input.mean_closed_nbhd.") + unit.def->name,
               closed / static_cast<double>(graph.num_vertices()));
    if (entry.family && unit.def->scenario == Scenario::kCso) {
      result.set("strategy.family_size",
                 static_cast<double>(entry.family->size()));
      result.set("sweep.input.max_Yx",
                 static_cast<double>(entry.family->max_neighborhood_size()));
    }
  }

  ncb::ThreadPool pool(options.threads);
  reset_peak_rss();

  std::map<std::string, ScenarioTrace> traces;
  Samples tail_ratios;
  double job_wall_ns = 0.0;
  /// Per job key, over its instances: the exact result digest and the
  /// extremes digest and mean sum the pins hold.
  struct Combined {
    Digest exact;
    Digest extremes;
    double mean_sum = 0.0;
  };
  // Runs every instance of one scenario once; returns the simulated slots.
  const auto run_scenario = [&](std::vector<Unit>& units, std::size_t first,
                                std::size_t count, bool traced,
                                std::map<std::string, Combined>& combined) {
    double slots = 0.0;
    for (std::size_t u = first; u < first + count; ++u) {
      Unit& unit = units[u];
      const auto add = [&](const ncb::exp::SweepJob& job,
                           const ncb::RunningStat& final, double seconds) {
        ++result.attempted;
        job_wall_ns += seconds * 1e9;
        slots += static_cast<double>(job.config.replications) *
                 static_cast<double>(job.config.horizon);
        Combined& c = combined[job.key];
        c.extremes.add_u64(extremes_digest(final));
        c.exact.add_u64(extremes_digest(final));
        c.exact.add_double(final.mean());
        c.exact.add_double(final.m2());
        c.mean_sum += final.mean();
      };
      if (traced) {
        ScenarioTrace& trace = traces[unit.def->name];
        for (const ncb::exp::SweepJob& job : unit.spec.expand()) {
          trace.job_rep_ns = Samples();
          const std::int64_t j0 = now_ns();
          const ncb::RunningStat final = run_traced_job(
              job,
              unit.cache.get(job.config,
                             ncb::is_combinatorial(unit.def->scenario)),
              pool, trace);
          add(job, final, static_cast<double>(now_ns() - j0) / 1e9);
          tail_ratios.add(trace.job_rep_ns.max() / trace.job_rep_ns.median());
        }
      } else {
        ncb::exp::SweepRunOptions run;
        run.pool = &pool;
        run.instance_cache = &unit.cache;
        const ncb::exp::SweepResult sweep = ncb::exp::run_sweep(unit.spec, run);
        if (sweep.outcomes.size() != unit.spec.policies.size()) {
          result.violation(std::string("incomplete sweep: ") + unit.def->name);
        }
        for (const auto& outcome : sweep.outcomes) {
          add(outcome.job, outcome.aggregate.final_cumulative(),
              outcome.seconds);
        }
      }
    }
    return slots;
  };
  // The pinned results hold for kDefaultSeed: the timed jobs are checked
  // when that is the seed, otherwise one untimed default-seed round runs.
  const auto check_pins = [&](const std::map<std::string, Combined>& combined) {
    for (const auto& [key, c] : combined) {
      const auto it = pinned().find(key);
      const std::string got = hex64(c.extremes.value());
      std::printf("sweep: %s extremes %s mean_sum %.17g\n", key.c_str(),
                  got.c_str(), c.mean_sum);
      if (it == pinned().end()) {
        result.violation("no pinned result for " + key);
      } else if (it->second.extremes != got ||
                 std::abs(c.mean_sum - it->second.mean) >
                     1e-9 * std::abs(it->second.mean)) {
        result.violation("result differs from the pinned one for " + key);
      }
    }
  };
  if (options.seed != kDefaultSeed) {
    Prepared pinned_units = prepare(kDefaultSeed);
    std::map<std::string, Combined> combined;
    run_scenario(pinned_units.units, 0, pinned_units.units.size(), false,
                 combined);
    check_pins(combined);
    job_wall_ns = 0.0;
  }

  std::map<std::string, Samples> rates;  // slots/s per scenario, per round
  std::map<std::string, std::uint64_t> first_round;
  Samples round_us;
  const std::int64_t measure_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  // Whole rounds over the five scenarios, at least two, as many as fit.
  for (int round = 0;; ++round) {
    const std::int64_t round_start = now_ns();
    std::map<std::string, Combined> combined;
    for (std::size_t first = 0; first < prepared.units.size();) {
      const ScenarioDef& def = *prepared.units[first].def;
      const std::int64_t t0 = now_ns();
      const double slots = run_scenario(prepared.units, first, def.instances,
                                        options.trace, combined);
      rates[def.name].add(slots / (static_cast<double>(now_ns() - t0) / 1e9));
      first += def.instances;
    }
    round_us.add(static_cast<double>(now_ns() - round_start) / 1e3);
    // Every round must reproduce the first one bit for bit.
    for (const auto& [key, c] : combined) {
      const auto it = first_round.emplace(key, c.exact.value()).first;
      if (it->second != c.exact.value()) {
        result.violation("job not deterministic across rounds: " + key);
      }
    }
    if (round == 0 && options.seed == kDefaultSeed) check_pins(combined);
    const std::int64_t elapsed = now_ns() - measure_start;
    if (round >= 1 && elapsed + elapsed / (round + 1) > budget_ns) break;
  }

  std::vector<double> medians;
  for (const ScenarioDef& def : scenarios()) {
    const double rate = rates[def.name].median();
    medians.push_back(rate);
    result.set(std::string("sweep.") + def.name + "_slots_per_s", rate);
  }
  result.set("throughput_per_s", geomean(medians));
  result.set("latency_p50_us", round_us.median());
  result.set("peak_rss_mb", peak_rss_mb(::getpid()));

  if (options.trace) {
    double rep_busy = 0.0;
    for (const ScenarioDef& def : scenarios()) {
      ScenarioTrace& trace = traces[def.name];
      const std::string s = def.name;
      result.set("core." + s + ".select_ns.p50", trace.select_ns.median());
      result.set("core." + s + ".observe_ns.p50", trace.observe_ns.median());
      const double nan = std::nan("");
      result.set("core." + s + ".obs_per_slot",
                 trace.observe_calls == 0.0
                     ? nan
                     : trace.observations / trace.observe_calls);
      result.set("sim." + s + ".runner_self_ns",
                 trace.slots == 0.0 ? nan
                                    : (trace.rep_ns.sum() -
                                       trace.select_total_ns -
                                       trace.observe_total_ns) /
                                          trace.slots);
      rep_busy += trace.rep_ns.sum();
    }
    result.set("exp.pool_busy_ratio",
               rep_busy / (static_cast<double>(options.threads) * job_wall_ns));
    result.set("exp.shard_tail_ratio", tail_ratios.median());
  }
  return result;
}

}  // namespace perfbench
