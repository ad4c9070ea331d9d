// Figure 5 — DFL-SSR expected regret (single-play, side reward). K = 100
// arms, random relation graph, n = 10000.
//
// Shape criterion: the per-slot expected regret "converges to 0
// dramatically" (paper §VII).
#include <iostream>

#include "bench_common.hpp"
#include "sim/thread_pool.hpp"
#include "theory/bounds.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;

  const CommonFlags flags = parse_common(argc, argv);
  ExperimentConfig config = fig5_config();
  apply_flags(config, flags);
  config.edge_probability = flags.p;

  print_header("Figure 5: DFL-SSR (single-play, side reward)",
               "Claim: expected regret converges to 0 dramatically; the "
               "target is the best closed-neighborhood sum u*, not mu*.",
               config);

  ThreadPool pool;
  Timer timer;
  const auto result =
      run_single_experiment(config, "dfl-ssr", Scenario::kSsr, &pool);

  std::cout << "series,t,expected_regret\n";
  print_series_csv("DFL-SSR", result.expected_regret(), flags.csv_points);
  std::cout << "series,t,realized_regret\n";
  print_series_csv("DFL-SSR", result.per_slot_regret.means(), flags.csv_points);
  print_figure("Fig 5 expected regret (DFL-SSR)",
               {{"DFL-SSR", result.expected_regret()}}, "E[regret]", 1.0);
  maybe_write_svg(flags, "fig5", "Fig 5 expected regret (DFL-SSR)",
                  {{"DFL-SSR", result.expected_regret()}}, "E[regret]");

  const auto instance = build_instance(config);
  std::cout << "\n-- summary --\n"
            << "optimal side-reward arm: " << instance.best_side_reward_arm()
            << " (u* = " << instance.best_side_reward_mean()
            << ", best direct arm " << instance.best_arm()
            << " mu* = " << instance.best_mean() << ")\n"
            << "final cumulative regret = " << result.final_cumulative.mean()
            << " (+/-" << result.final_cumulative.ci95_halfwidth() << ")\n"
            << "final avg regret R_n/n = "
            << result.final_cumulative.mean() /
                   static_cast<double>(config.horizon)
            << '\n'
            << "Theorem 3 bound 49*K*sqrt(nK) = "
            << theorem3_bound(config.horizon, config.num_arms) << '\n'
            << "wall time: " << timer.elapsed_seconds() << " s\n";
  return 0;
}
