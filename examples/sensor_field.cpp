// Environmental sensor-field monitoring: a data-collection drone queries one
// sensor per round for its event-detection reading, but overhearing the
// low-power radio broadcasts of the queried sensor's grid neighbors comes for
// free — the side-observation structure of the paper, with the relation graph
// given by physical adjacency rather than social ties.
//
// Sensors sit on an 8x6 grid; detection probability peaks at a hot spot and
// decays with distance. We compare DFL-SSO (exploits overheard neighbors)
// against plain UCB1 (discards them) under SSO semantics.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "core/dfl_sso.hpp"
#include "core/ucb1.hpp"
#include "exp/shard_scheduler.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace ncb;

  constexpr std::size_t kRows = 8;
  constexpr std::size_t kCols = 6;
  Graph graph = grid_graph(kRows, kCols);

  // Detection probability: a hot spot near cell (2, 4) decaying with
  // Manhattan distance, floored at a 5% false-positive rate.
  std::vector<double> detect(kRows * kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const double dist = std::abs(static_cast<double>(r) - 2.0) +
                          std::abs(static_cast<double>(c) - 4.0);
      detect[r * kCols + c] = std::max(0.05, 0.9 - 0.12 * dist);
    }
  }
  BanditInstance instance = bernoulli_instance(graph, detect);
  std::cout << "hot-spot sensor: " << instance.best_arm()
            << " (detects " << instance.best_mean() * 100 << "% of events)\n";

  ReplicationOptions options;
  options.replications = 12;
  options.runner.horizon = 6000;
  ThreadPool pool;
  options.pool = &pool;

  struct Entry {
    std::string name;
    SinglePolicyFactory factory;
  };
  const std::vector<Entry> policies{
      {"DFL-SSO",
       [](std::uint64_t seed) -> std::unique_ptr<SinglePlayPolicy> {
         return std::make_unique<DflSso>(DflSsoOptions{.seed = seed});
       }},
      {"UCB1",
       [](std::uint64_t seed) -> std::unique_ptr<SinglePlayPolicy> {
         return std::make_unique<Ucb1>(Ucb1Options{.seed = seed});
       }},
  };

  std::cout << "\nmissed detections over " << options.runner.horizon
            << " query rounds:\n";
  for (const auto& entry : policies) {
    const auto result = exp::run_sharded_single(
        entry.factory, instance, Scenario::kSso, options);
    std::cout << "  " << std::setw(8) << std::left << entry.name << std::right
              << " cumulative regret = " << std::setw(8)
              << result.final_cumulative.mean() << "  (R_n/n = "
              << result.final_cumulative.mean() /
                     static_cast<double>(options.runner.horizon)
              << ")\n";
  }
  std::cout << "\noverheard neighbor broadcasts localize the hot spot with "
               "far fewer wasted queries than probe-only UCB1.\n";
  return 0;
}
