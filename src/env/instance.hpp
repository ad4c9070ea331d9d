// A problem instance: relation graph + one reward distribution per arm.
//
// The instance knows all ground-truth quantities the regret definitions
// need: per-arm means μ_i, side-reward means u_i = Σ_{j∈N_i} μ_j (paper §V),
// and the per-semantics optimal values. An all-Bernoulli instance also
// keeps the per-arm thresholds Environment::advance() draws its reward row
// against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/distribution.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ncb {

class BanditInstance {
 public:
  /// Takes ownership of one distribution per vertex of `graph`.
  BanditInstance(Graph graph, std::vector<DistributionPtr> arms);

  BanditInstance(const BanditInstance& other);
  BanditInstance& operator=(const BanditInstance& other);
  BanditInstance(BanditInstance&&) noexcept = default;
  BanditInstance& operator=(BanditInstance&&) noexcept = default;

  [[nodiscard]] std::size_t num_arms() const noexcept {
    return arms_.size();
  }
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const Distribution& arm(ArmId i) const {
    return *arms_.at(static_cast<std::size_t>(i));
  }

  /// Per-arm means μ_i.
  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return means_;
  }

  /// Side-reward means u_i = Σ_{j ∈ N_i} μ_j.
  [[nodiscard]] const std::vector<double>& side_reward_means() const noexcept {
    return side_means_;
  }

  /// Per-arm thresholds ceil(p_i·2⁵³) when every arm is a BernoulliDist
  /// with 0 < p_i < 1, else empty. A 53-bit draw u is below thr_i iff
  /// u·2⁻⁵³ < p_i, i.e. iff BernoulliDist::sample's `uniform() < p` holds
  /// (both scalings by 2⁵³ are exact), so Environment can draw the whole
  /// row with integer compares and the same RNG stream.
  [[nodiscard]] const std::vector<std::uint64_t>& bernoulli_thresholds()
      const noexcept {
    return bernoulli_thresholds_;
  }

  /// Arm with the highest direct mean (ties → smallest id). SSO optimum.
  [[nodiscard]] ArmId best_arm() const noexcept { return best_arm_; }
  [[nodiscard]] double best_mean() const noexcept {
    return means_[static_cast<std::size_t>(best_arm_)];
  }

  /// Arm with the highest side-reward mean u_i. SSR optimum; the paper notes
  /// it "may differ from the optimal arm under side observation".
  [[nodiscard]] ArmId best_side_reward_arm() const noexcept {
    return best_side_arm_;
  }
  [[nodiscard]] double best_side_reward_mean() const noexcept {
    return side_means_[static_cast<std::size_t>(best_side_arm_)];
  }

  /// Direct mean of a strategy: λ_x = Σ_{i∈s_x} μ_i (CSO reward semantics).
  [[nodiscard]] double strategy_mean(const ArmSet& strategy) const;

  /// Side-reward mean of a strategy: σ_x = Σ_{i∈Y_x} μ_i (CSR semantics).
  [[nodiscard]] double strategy_side_reward_mean(const ArmSet& strategy) const;

  [[nodiscard]] std::string to_string() const;

 private:
  void recompute();

  Graph graph_;
  std::vector<DistributionPtr> arms_;
  std::vector<double> means_;
  std::vector<double> side_means_;
  std::vector<std::uint64_t> bernoulli_thresholds_;
  ArmId best_arm_ = kNoArm;
  ArmId best_side_arm_ = kNoArm;
};

/// Builds the paper's §VII setting: Bernoulli arms with means drawn
/// uniformly from [mean_lo, mean_hi].
[[nodiscard]] BanditInstance random_bernoulli_instance(Graph graph,
                                                       Xoshiro256& rng,
                                                       double mean_lo = 0.0,
                                                       double mean_hi = 1.0);

/// Bernoulli instance with explicitly given means.
[[nodiscard]] BanditInstance bernoulli_instance(Graph graph,
                                                const std::vector<double>& means);

/// Beta(a_i, b_i) instance with means drawn uniformly: a = 1 + 4u, b chosen
/// so the mean is u. Exercises non-binary rewards in tests/ablation.
[[nodiscard]] BanditInstance random_beta_instance(Graph graph, Xoshiro256& rng);

}  // namespace ncb
