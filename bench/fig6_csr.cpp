// Figure 6 — DFL-CSR expected regret (combinatorial-play, side reward).
// K = 20, M = 3 (paper leaves these unspecified; see EXPERIMENTS.md),
// n = 10000, exact coverage oracle.
//
// Shape criterion: per-slot expected regret converges to ~0 (paper §VII).
#include <iostream>

#include "bench_common.hpp"
#include "sim/thread_pool.hpp"
#include "theory/bounds.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;

  CommonFlags flags = parse_common(argc, argv);
  if (flags.reps > 10 && !flags.quick) flags.reps = 10;

  ExperimentConfig config = fig6_config();
  apply_flags(config, flags);
  if (flags.arms == 0) config.num_arms = 20;
  config.strategy_size = flags.m;
  config.edge_probability = flags.p;

  print_header("Figure 6: DFL-CSR (combinatorial-play, side reward)",
               "Claim: learning per-arm rewards + an optimization oracle "
               "achieves zero regret over the coverage objective.",
               config);

  ThreadPool pool;
  Timer timer;
  const auto result =
      run_combinatorial_experiment(config, "dfl-csr", Scenario::kCsr, &pool);

  std::cout << "series,t,expected_regret\n";
  print_series_csv("DFL-CSR", result.expected_regret(), flags.csv_points);
  std::cout << "series,t,realized_regret\n";
  print_series_csv("DFL-CSR", result.per_slot_regret.means(), flags.csv_points);
  print_figure("Fig 6 expected regret (DFL-CSR)",
               {{"DFL-CSR", result.expected_regret()}}, "E[regret]", 1.0);
  maybe_write_svg(flags, "fig6", "Fig 6 expected regret (DFL-CSR)",
                  {{"DFL-CSR", result.expected_regret()}}, "E[regret]");

  const auto instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  std::cout << "\n-- summary --\n"
            << "|F| = " << family->size()
            << ", N = max|Y_x| = " << family->max_neighborhood_size() << '\n'
            << "optimal sigma* = " << result.optimal_per_slot << '\n'
            << "final cumulative regret = " << result.final_cumulative.mean()
            << " (+/-" << result.final_cumulative.ci95_halfwidth() << ")\n"
            << "final avg regret R_n/n = "
            << result.final_cumulative.mean() /
                   static_cast<double>(config.horizon)
            << '\n'
            << "Theorem 4 bound = "
            << theorem4_bound(config.horizon, config.num_arms,
                              family->max_neighborhood_size())
            << " (loose; n^{5/6} term dominates)\n"
            << "wall time: " << timer.elapsed_seconds() << " s\n";
  return 0;
}
