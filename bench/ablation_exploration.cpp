// A-η — exploration-scale sensitivity of DFL-SSO: index = X̄ + η·width.
// η = 1 is Algorithm 1; the sweep shows the regret cost of over- and
// under-exploration given side observations (side information makes small
// η safer than in the no-side setting, since free samples keep estimates
// honest even with little deliberate exploration).
#include <iostream>

#include "bench_common.hpp"
#include "core/dfl_sso.hpp"
#include "sim/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace ncb;
  using namespace ncb::bench;
  CommonFlags flags = parse_common(argc, argv);
  if (!flags.quick && flags.horizon > 5000) flags.horizon = 5000;

  ExperimentConfig config = fig3_config();
  apply_flags(config, flags);
  if (flags.arms == 0) config.num_arms = 50;
  config.edge_probability = flags.p;

  print_header("Ablation A-eta: DFL-SSO exploration scale",
               "index = mean + eta*width; eta = 1 is Algorithm 1.", config);

  const auto instance = build_instance(config);
  ThreadPool pool;
  ReplicationOptions options;
  options.replications = config.replications;
  options.master_seed = config.seed;
  options.runner.horizon = config.horizon;
  options.pool = &pool;

  std::cout << "eta,final_cumulative_regret,ci95\n";
  std::vector<double> series;
  for (const double eta : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}) {
    const auto result = exp::run_sharded_single(
        [eta](std::uint64_t seed) -> std::unique_ptr<SinglePlayPolicy> {
          DflSsoOptions opts;
          opts.exploration_scale = eta;
          opts.seed = seed;
          return std::make_unique<DflSso>(opts);
        },
        instance, Scenario::kSso, options);
    std::cout << eta << ',' << result.final_cumulative.mean() << ','
              << result.final_cumulative.ci95_halfwidth() << '\n';
    series.push_back(result.final_cumulative.mean());
  }
  PlotOptions opts;
  opts.title = "final regret vs eta (x = index in eta list)";
  opts.y_zero = true;
  opts.height = 12;
  std::cout << render_plot(series, opts);
  return 0;
}
