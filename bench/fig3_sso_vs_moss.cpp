// Figure 3 — MOSS vs DFL-SSO (paper §VII, Fig. 3(a) expected regret and
// Fig. 3(b) accumulated regret). K = 100 arms on a random relation graph,
// means uniform in [0,1], n = 10000.
//
// A thin client of the sweep engine (src/exp/): the two policies form a
// 2-job SweepSpec whose replications run as fine-grained shards, and the
// plotted series come from the jobs' dense checkpoint aggregates.
//
// Shape criterion: DFL-SSO's accumulated regret grows far slower than
// MOSS's, and its per-slot expected regret converges to ~0 sooner.
#include <iostream>

#include "bench_common.hpp"
#include "exp/sweep_runner.hpp"
#include "sim/thread_pool.hpp"
#include "theory/bounds.hpp"
#include "graph/clique_cover.hpp"
#include "graph/partition.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;

  const CommonFlags flags = parse_common(argc, argv);
  ExperimentConfig config = fig3_config();
  apply_flags(config, flags);
  config.edge_probability = flags.p;

  print_header("Figure 3: MOSS vs DFL-SSO (single-play, side observation)",
               "Claim: side observations let DFL-SSO converge far faster; "
               "MOSS's accumulated regret keeps climbing.",
               config);

  exp::SweepSpec spec;
  spec.name = "fig3";
  spec.scenario = Scenario::kSso;
  spec.policies = {"moss", "dfl-sso"};
  spec.graphs = {config.graph_family};
  spec.arms = {config.num_arms};
  spec.edge_probabilities = {config.edge_probability};
  spec.horizons = {config.horizon};
  spec.replications = config.replications;
  spec.seed = config.seed;
  spec.checkpoints = 0;  // dense grid: the figures plot every slot

  ThreadPool pool;
  Timer timer;
  exp::SweepRunOptions options;
  options.pool = &pool;
  const auto result = exp::run_sweep(spec, options);
  const exp::JobAggregate& moss = result.outcomes[0].aggregate;
  const exp::JobAggregate& sso = result.outcomes[1].aggregate;

  // Fig. 3(a): per-slot expected regret, i.e. the mean pseudo-regret over
  // replications; the realized per-slot regret follows as its own series.
  const auto moss_expected = moss.per_slot_pseudo_regret().means();
  const auto sso_expected = sso.per_slot_pseudo_regret().means();
  std::cout << "\n-- Fig 3(a): expected (per-slot) regret --\n";
  std::cout << "series,t,expected_regret\n";
  print_series_csv("MOSS", moss_expected, flags.csv_points);
  print_series_csv("DFL-SSO", sso_expected, flags.csv_points);
  std::cout << "series,t,realized_regret\n";
  print_series_csv("MOSS", moss.per_slot_regret().means(), flags.csv_points);
  print_series_csv("DFL-SSO", sso.per_slot_regret().means(), flags.csv_points);
  print_figure("Fig 3(a) expected regret",
               {{"MOSS", moss_expected}, {"DFL-SSO", sso_expected}},
               "E[regret]", 1.0);

  // Fig. 3(b): accumulated regret.
  const auto moss_cumulative = moss.cumulative_regret().means();
  const auto sso_cumulative = sso.cumulative_regret().means();
  std::cout << "\n-- Fig 3(b): accumulated regret --\n";
  std::cout << "series,t,accumulated_regret\n";
  print_series_csv("MOSS", moss_cumulative, flags.csv_points);
  print_series_csv("DFL-SSO", sso_cumulative, flags.csv_points);
  print_figure("Fig 3(b) accumulated regret",
               {{"MOSS", moss_cumulative}, {"DFL-SSO", sso_cumulative}},
               "R_t", 1.0);
  maybe_write_svg(flags, "fig3a", "Fig 3(a) expected regret",
                  {{"MOSS", moss_expected}, {"DFL-SSO", sso_expected}},
                  "E[regret]");
  maybe_write_svg(flags, "fig3b", "Fig 3(b) accumulated regret",
                  {{"MOSS", moss_cumulative}, {"DFL-SSO", sso_cumulative}},
                  "R_t");

  // Headline comparison + theoretical bounds for EXPERIMENTS.md.
  const auto instance = build_instance(config);
  const auto gaps = gaps_from_means(instance.means());
  const auto part = threshold_partition(
      instance.graph(), gaps, default_delta0(config.num_arms, config.horizon));
  const double t1 = theorem1_bound(config.horizon, config.num_arms,
                                   part.clique_cover_size());
  std::cout << "\n-- summary --\n"
            << "final cumulative regret: MOSS="
            << moss.final_cumulative().mean() << " (+/-"
            << moss.final_cumulative().ci95_halfwidth() << ")"
            << "  DFL-SSO=" << sso.final_cumulative().mean() << " (+/-"
            << sso.final_cumulative().ci95_halfwidth() << ")\n"
            << "improvement factor: "
            << moss.final_cumulative().mean() /
                   std::max(sso.final_cumulative().mean(), 1e-9)
            << "x\n"
            << "clique cover |C(H)| = " << part.clique_cover_size()
            << " (delta0 threshold split: |K1|=" << part.k1.size()
            << " |K2|=" << part.k2.size() << ")\n"
            << "Theorem 1 bound: " << t1
            << "  MOSS bound 49*sqrt(nK): "
            << moss_bound(config.horizon, config.num_arms) << '\n'
            << "wall time: " << timer.elapsed_seconds() << " s\n";
  return 0;
}
