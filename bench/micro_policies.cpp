// A7 — google-benchmark microbenchmarks: per-step CPU cost of every policy
// (select + observe), plus the substrate hot paths (graph construction,
// clique cover, strategy-graph build, oracle calls), plus the observe-path
// delivery comparison (one batched span per slot vs one singleton span per
// edge) on a dense ER graph — the before/after evidence for the batched
// ObservationSpan API — plus the serving dynamics: one DecisionEngine
// decide + report per iteration at K = 10^4 — plus the simulator's own
// per-slot cost, one Environment::advance() reward row.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/index_policy.hpp"
#include "core/policy_registry.hpp"
#include "env/environment.hpp"
#include "graph/clique_cover.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"
#include "strategy/oracle.hpp"
#include "strategy/strategy_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace ncb;

Graph bench_graph(std::size_t k, double p) {
  Xoshiro256 rng(42);
  return erdos_renyi(k, p, rng);
}

void BM_SinglePolicyStep(benchmark::State& state, const std::string& name) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Graph g = bench_graph(k, 0.3);
  const auto policy =
      PolicyRegistry::instance().make_single_play(name, 1 << 20, 7);
  policy->reset(g);
  Xoshiro256 rng(9);
  std::vector<Observation> obs;
  TimeSlot t = 0;
  for (auto _ : state) {
    ++t;
    const ArmId a = policy->select(t);
    obs.clear();
    for (const ArmId j : g.closed_neighborhood(a)) obs.push_back({j, rng.uniform()});
    policy->observe(a, t, obs);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CombinatorialPolicyStep(benchmark::State& state,
                                const std::string& name) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto graph = std::make_shared<const Graph>(bench_graph(k, 0.3));
  const auto family =
      std::make_shared<const FeasibleSet>(make_subset_family(graph, 2));
  const auto policy =
      PolicyRegistry::instance().make_combinatorial(name, family, 7);
  policy->reset();
  Xoshiro256 rng(9);
  std::vector<Observation> obs;
  TimeSlot t = 0;
  for (auto _ : state) {
    ++t;
    const StrategyId x = policy->select(t);
    obs.clear();
    for (const ArmId j : family->neighborhood(x)) obs.push_back({j, rng.uniform()});
    policy->observe(x, t, obs);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}

// Per-slot observe cost on a dense ER graph (K = 400, p = 0.6): a slot
// reveals ~241 (arm, value) pairs. Batched = one observe() call with a span
// over the runner's reused batch (what the runner does); PerEdge = one
// observe() call per revealed pair with a singleton span (the pre-span
// delivery granularity). Only side-observation learners qualify — they are
// indifferent to how the slot's pairs are chunked.
void BM_ObservePerSlotBatched(benchmark::State& state,
                              const std::string& name) {
  const Graph g = bench_graph(400, 0.6);
  const auto policy =
      PolicyRegistry::instance().make_single_play(name, 1 << 20, 7);
  policy->reset(g);
  Xoshiro256 rng(9);
  const ArmId played = 0;
  ObservationBatch batch;
  batch.reserve(g.num_vertices());
  for (const ArmId j : g.closed_neighborhood(played)) {
    batch.add(j, rng.uniform());
  }
  TimeSlot t = 0;
  for (auto _ : state) {
    ++t;
    policy->observe(played, t, batch.span());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}

void BM_ObservePerSlotPerEdge(benchmark::State& state,
                              const std::string& name) {
  const Graph g = bench_graph(400, 0.6);
  const auto policy =
      PolicyRegistry::instance().make_single_play(name, 1 << 20, 7);
  policy->reset(g);
  Xoshiro256 rng(9);
  const ArmId played = 0;
  std::vector<Observation> observations;
  for (const ArmId j : g.closed_neighborhood(played)) {
    observations.push_back({j, rng.uniform()});
  }
  TimeSlot t = 0;
  for (auto _ : state) {
    ++t;
    for (const Observation& obs : observations) {
      policy->observe(played, t, ObservationSpan(&obs, 1));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(observations.size()));
}

// Tentpole evidence: per-slot cost of the dirty-set index cache against a
// forced full recompute (invalidate_index_cache() before every select).
// Dense (K=400, p=0.3) slots touch ~30% of the arms so the gap is modest;
// sparse (K=10^4, p=0.002) slots touch ~20 arms and the incremental path
// skips the other ~9980 refreshes entirely.
void BM_SelectIncrementalVsRecompute(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  const bool recompute = state.range(2) != 0;
  const Graph g = bench_graph(k, p);
  const auto policy =
      PolicyRegistry::instance().make_single_play("dfl-sso", 1 << 20, 7);
  auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
  policy->reset(g);
  Xoshiro256 rng(9);
  std::vector<Observation> obs;
  TimeSlot t = 0;
  // Warm: cover every arm once so the loop measures steady-state cost,
  // not the all-+inf opening transient (identical in both modes anyway).
  for (std::size_t i = 0; i < k; ++i) obs.push_back({static_cast<ArmId>(i), rng.uniform()});
  policy->observe(0, ++t, obs);
  for (auto _ : state) {
    ++t;
    if (recompute) idx->invalidate_index_cache();
    const ArmId a = policy->select(t);
    obs.clear();
    for (const ArmId j : g.closed_neighborhood(a)) obs.push_back({j, rng.uniform()});
    policy->observe(a, t, obs);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}

// UCB1 select + played-arm observe at K = 10^4 in steady state (warmed up
// until every arm has been played once; continuous rewards, each arm's
// mean drawn uniformly, plus uniform noise): the group-bound scan against
// a forced full evaluation (invalidate_index_cache() before every select),
// which stands in for the K-wide refresh every select paid before bounds.
void BM_Ucb1SelectSteadyState(benchmark::State& state) {
  const std::size_t k = 10000;
  const bool recompute = state.range(0) != 0;
  const auto policy =
      PolicyRegistry::instance().make_single_play("ucb1", 1 << 20, 7);
  auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
  policy->reset(Graph(k));
  Xoshiro256 rng(9);
  std::vector<double> means(k);
  for (double& m : means) m = rng.uniform();
  TimeSlot t = 0;
  const auto step = [&] {
    ++t;
    if (recompute) idx->invalidate_index_cache();
    const ArmId a = policy->select(t);
    const Observation obs{
        a, means[static_cast<std::size_t>(a)] + rng.uniform() - 0.5};
    policy->observe(a, t, ObservationSpan(&obs, 1));
    return a;
  };
  for (std::size_t i = 0; i < k; ++i) (void)step();
  for (auto _ : state) benchmark::DoNotOptimize(step());
  state.SetItemsProcessed(state.iterations());
}

// ncb_serve's feedback pattern in process: lockstep decide + report on a
// DecisionEngine over ER(K, 0.001) with engine epsilon 0.05, Bernoulli
// rewards (per-arm means uniform in [0, 1)) and 1000 user keys, so the
// policy learns only from the served arm. Timed after a 10K-decision
// warm-up: the engine is built and warmed once per process and policy,
// and every later run of the benchmark continues it.
class EngineProbe {
 public:
  EngineProbe(const std::string& spec, std::size_t k) : rng_(9), means_(k) {
    serve::EngineOptions options;
    options.policy_spec = spec;
    options.epsilon = 0.05;
    options.metrics = &registry_;
    engine_ = std::make_unique<serve::DecisionEngine>(bench_graph(k, 0.001),
                                                      options);
    for (double& m : means_) m = rng_.uniform();
    for (std::size_t i = 0; i < 10 * k; ++i) (void)step();
  }

  ArmId step() {
    const serve::Decision d =
        engine_->decide("user-" + std::to_string(rng_.uniform_int(1000)));
    const double mu = means_[static_cast<std::size_t>(d.action)];
    engine_->report(d.decision_id, rng_.bernoulli(mu) ? 1.0 : 0.0);
    return d.action;
  }

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<serve::DecisionEngine> engine_;
  Xoshiro256 rng_;
  std::vector<double> means_;
};

void BM_EngineDecideReport(benchmark::State& state, const std::string& spec) {
  const auto k = static_cast<std::size_t>(state.range(0));
  static std::map<std::pair<std::string, std::size_t>,
                  std::unique_ptr<EngineProbe>>
      probes;
  auto& probe = probes[{spec, k}];
  if (!probe) probe = std::make_unique<EngineProbe>(spec, k);
  for (auto _ : state) benchmark::DoNotOptimize(probe->step());
  state.SetItemsProcessed(state.iterations());
}

// One reward row over K Bernoulli arms with uniform(0, 1) means, the
// instance every sweep and figure draws from (items = arms drawn).
void BM_EnvironmentAdvance(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Xoshiro256 gen(3);
  Environment env(random_bernoulli_instance(empty_graph(k), gen), 11);
  for (auto _ : state) benchmark::DoNotOptimize(env.advance().data());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k));
}

void BM_ErdosRenyi(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const Graph g = erdos_renyi(k, 0.3, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}

// The deduplicating edge-list constructor (graph I/O path), as opposed to
// the generators' from_unique_edges fast path measured by BM_ErdosRenyi.
void BM_GraphFromEdgeList(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::vector<Edge> edges = bench_graph(k, 0.3).edges();
  for (auto _ : state) {
    const Graph g(k, edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
}

void BM_GreedyCliqueCover(benchmark::State& state) {
  const Graph g = bench_graph(static_cast<std::size_t>(state.range(0)), 0.3);
  for (auto _ : state) {
    const auto cover = greedy_clique_cover(g);
    benchmark::DoNotOptimize(cover.size());
  }
}

void BM_StrategyGraphBuild(benchmark::State& state) {
  const auto graph = std::make_shared<const Graph>(
      bench_graph(static_cast<std::size_t>(state.range(0)), 0.3));
  const FeasibleSet family = make_subset_family(graph, 2);
  for (auto _ : state) {
    const Graph sg = build_strategy_graph(family);
    benchmark::DoNotOptimize(sg.num_edges());
  }
}

void BM_ExactCoverageOracle(benchmark::State& state) {
  const auto graph = std::make_shared<const Graph>(
      bench_graph(static_cast<std::size_t>(state.range(0)), 0.3));
  const FeasibleSet family = make_subset_family(graph, 2);
  const ExactCoverageOracle oracle;
  std::vector<double> scores(graph->num_vertices());
  Xoshiro256 rng(5);
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.select(family, scores));
  }
}

void BM_GreedyCoverageOracle(benchmark::State& state) {
  const auto graph = std::make_shared<const Graph>(
      bench_graph(static_cast<std::size_t>(state.range(0)), 0.3));
  const FeasibleSet family = make_subset_family(graph, 2);
  const GreedyCoverageOracle oracle;
  std::vector<double> scores(graph->num_vertices());
  Xoshiro256 rng(5);
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.select(family, scores));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_SinglePolicyStep, dfl_sso, "dfl-sso")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, dfl_ssr, "dfl-ssr")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, dfl_ssr_meansum, "dfl-ssr-meansum")
    ->Arg(100)
    ->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, moss, "moss-anytime")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, ucb1, "ucb1")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, ucb_n, "ucb-n")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, thompson, "thompson")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, exp3, "exp3")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_SinglePolicyStep, eps_greedy, "eps-greedy")
    ->Arg(100)
    ->Arg(400);

BENCHMARK_CAPTURE(BM_CombinatorialPolicyStep, dfl_cso, "dfl-cso")->Arg(12)->Arg(20);
BENCHMARK_CAPTURE(BM_CombinatorialPolicyStep, dfl_csr, "dfl-csr")->Arg(12)->Arg(20);
BENCHMARK_CAPTURE(BM_CombinatorialPolicyStep, dfl_csr_greedy, "dfl-csr-greedy")
    ->Arg(12)
    ->Arg(20);
BENCHMARK_CAPTURE(BM_CombinatorialPolicyStep, cucb, "cucb")->Arg(12)->Arg(20);

BENCHMARK_CAPTURE(BM_ObservePerSlotBatched, dfl_sso, "dfl-sso");
BENCHMARK_CAPTURE(BM_ObservePerSlotPerEdge, dfl_sso, "dfl-sso");
BENCHMARK_CAPTURE(BM_ObservePerSlotBatched, ucb_n, "ucb-n");
BENCHMARK_CAPTURE(BM_ObservePerSlotPerEdge, ucb_n, "ucb-n");
BENCHMARK_CAPTURE(BM_ObservePerSlotBatched, exp3_set, "exp3-set");
BENCHMARK_CAPTURE(BM_ObservePerSlotPerEdge, exp3_set, "exp3-set");

// Args: {K, p_permille, 1 = force full recompute each slot}.
BENCHMARK(BM_SelectIncrementalVsRecompute)
    ->Args({400, 300, 0})
    ->Args({400, 300, 1})
    ->Args({10000, 2, 0})
    ->Args({10000, 2, 1});

// Arg: 1 = force full evaluation each select.
BENCHMARK(BM_Ucb1SelectSteadyState)->Arg(0)->Arg(1);

// Arg: K.
BENCHMARK_CAPTURE(BM_EngineDecideReport, eps_greedy, "eps-greedy")
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EngineDecideReport, ucb1, "ucb1")
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Arg: K.
BENCHMARK(BM_EnvironmentAdvance)->Arg(100)->Arg(10000);

BENCHMARK(BM_ErdosRenyi)->Arg(100)->Arg(400);
BENCHMARK(BM_GraphFromEdgeList)->Arg(100)->Arg(400);
BENCHMARK(BM_GreedyCliqueCover)->Arg(100)->Arg(400);
BENCHMARK(BM_StrategyGraphBuild)->Arg(12)->Arg(20);
BENCHMARK(BM_ExactCoverageOracle)->Arg(12)->Arg(20);
BENCHMARK(BM_GreedyCoverageOracle)->Arg(12)->Arg(20);

BENCHMARK_MAIN();
