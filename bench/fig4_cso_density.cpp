// Figure 4 — DFL-CSO expected regret under sparse (p=0.3, Fig. 4(a)) and
// dense (p=0.6, Fig. 4(b)) relation graphs. The paper leaves K and M
// unspecified; we use K = 20, M = 3 (|F| = 1350 com-arms), documented in
// EXPERIMENTS.md.
//
// A thin client of the sweep engine (src/exp/): the density comparison IS a
// p-axis sweep — one SweepSpec with p = {0.3, 0.6} expands to the two jobs
// this figure plots.
//
// Shape criterion: the dense graph yields more side observation per play
// (smaller clique cover of SG), so its expected regret approaches 0 faster
// than the sparse graph's.
#include <iostream>

#include "bench_common.hpp"
#include "exp/sweep_runner.hpp"
#include "graph/clique_cover.hpp"
#include "sim/thread_pool.hpp"
#include "strategy/strategy_graph.hpp"
#include "theory/bounds.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;

  CommonFlags flags = parse_common(argc, argv);
  if (flags.reps > 10 && !flags.quick) flags.reps = 10;  // combinatorial cost

  ExperimentConfig base = fig4_config(false);
  apply_flags(base, flags);
  if (flags.arms == 0) base.num_arms = 20;
  base.strategy_size = flags.m;

  exp::SweepSpec spec;
  spec.name = "fig4";
  spec.scenario = Scenario::kCso;
  spec.policies = {"dfl-cso"};
  spec.graphs = {base.graph_family};
  spec.arms = {base.num_arms};
  spec.edge_probabilities = {0.3, 0.6};  // sparse Fig. 4(a), dense Fig. 4(b)
  spec.horizons = {base.horizon};
  spec.replications = base.replications;
  spec.seed = base.seed;
  spec.strategy_size = base.strategy_size;
  spec.checkpoints = 0;  // dense grid: the figure plots every slot

  ThreadPool pool;
  Timer timer;
  exp::SweepRunOptions options;
  options.pool = &pool;
  const auto result = exp::run_sweep(spec, options);

  std::vector<PlotSeries> figure;
  for (const exp::JobOutcome& outcome : result.outcomes) {
    const ExperimentConfig& config = outcome.job.config;
    const bool dense = config.edge_probability > 0.45;

    print_header(dense ? "Figure 4(b): DFL-CSO, dense graph (p=0.6)"
                       : "Figure 4(a): DFL-CSO, sparse graph (p=0.3)",
                 "Claim: more side observation (denser graph) pulls the "
                 "expected regret toward 0 despite |F| com-arms.",
                 config);

    // Expected regret is the mean pseudo-regret; the realized per-slot
    // regret follows as its own series.
    std::cout << "series,t,expected_regret\n";
    const std::string label = dense ? "dense(p=0.6)" : "sparse(p=0.3)";
    const auto expected = outcome.aggregate.per_slot_pseudo_regret().means();
    print_series_csv(label, expected, flags.csv_points);
    std::cout << "series,t,realized_regret\n";
    print_series_csv(label, outcome.aggregate.per_slot_regret().means(),
                     flags.csv_points);
    figure.push_back({label, expected});

    // SG statistics explain the effect: report |F| and the SG clique cover.
    const auto instance = build_instance(config);
    const auto family = build_family(config, instance.graph());
    const Graph sg = build_strategy_graph(*family);
    const auto cover = greedy_clique_cover(sg);
    const auto& final_stat = outcome.aggregate.final_cumulative();
    std::cout << "|F| = " << family->size() << ", SG edges = " << sg.num_edges()
              << ", greedy clique cover of SG C = " << cover.size() << '\n'
              << "Theorem 2 bound: "
              << theorem2_bound(config.horizon, family->size(), cover.size())
              << "  vs traditional 49*sqrt(n|F|) = "
              << moss_comarm_bound(config.horizon, family->size()) << '\n'
              << "final cumulative regret = " << final_stat.mean() << " (+/-"
              << final_stat.ci95_halfwidth() << ")\n"
              << "final avg regret R_n/n = "
              << final_stat.mean() / static_cast<double>(config.horizon)
              << "\n\n";
  }

  print_figure("Fig 4 expected regret: sparse vs dense", figure, "E[regret]",
               1.0);
  maybe_write_svg(flags, "fig4", "Fig 4 expected regret (DFL-CSO)", figure,
                  "E[regret]");
  std::cout << "wall time: " << timer.elapsed_seconds() << " s\n";
  return 0;
}
