// Declarative experiment configurations matching the paper's §VII setups.
// The bench binaries and examples build on these so every figure's workload
// is constructed in exactly one place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "env/instance.hpp"
#include "strategy/feasible_set.hpp"

namespace ncb {

/// Graph family selector for experiment configs.
enum class GraphFamily {
  kErdosRenyi,
  kComplete,
  kEmpty,
  kStar,
  kCycle,
  kDisjointCliques,
  kBarabasiAlbert,
  kWattsStrogatz,
};

struct ExperimentConfig {
  std::string name = "experiment";
  GraphFamily graph_family = GraphFamily::kErdosRenyi;
  std::size_t num_arms = 100;          ///< K.
  double edge_probability = 0.3;       ///< ER p; or WS beta.
  std::size_t family_param = 4;        ///< cliques count / BA attach / WS k.
  TimeSlot horizon = 10000;            ///< n.
  std::size_t replications = 20;
  std::uint64_t seed = 20170605;
  // Combinatorial-only:
  std::size_t strategy_size = 3;       ///< M.
  bool exact_size_strategies = false;  ///< |s| = M rather than |s| ≤ M.

  [[nodiscard]] std::string describe() const;
};

/// Deterministically builds the config's relation graph.
[[nodiscard]] Graph build_graph(const ExperimentConfig& config);

/// Builds the §VII instance: config's graph + Bernoulli arms with means
/// uniform in [0, 1] (drawn from the config seed).
[[nodiscard]] BanditInstance build_instance(const ExperimentConfig& config);

/// Builds the subset strategy family (|s| ≤ M or = M) over the given graph.
[[nodiscard]] std::shared_ptr<const FeasibleSet> build_family(
    const ExperimentConfig& config, const Graph& graph);

/// Paper §VII defaults: Fig. 3/5 use K = 100 arms, p = 0.3, n = 10000.
[[nodiscard]] ExperimentConfig fig3_config();
[[nodiscard]] ExperimentConfig fig5_config();
/// Fig. 4: combinatorial play; the paper leaves K/M unspecified — we use
/// K = 20, M = 3 (documented in EXPERIMENTS.md). `dense` picks p = 0.6.
[[nodiscard]] ExperimentConfig fig4_config(bool dense);
/// Fig. 6: combinatorial side reward, same K/M convention as Fig. 4.
[[nodiscard]] ExperimentConfig fig6_config();

}  // namespace ncb
