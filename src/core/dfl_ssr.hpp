// DFL-SSR — Algorithm 3: distribution-free learning for single-play with
// side reward.
//
// The decision maker receives B_{i,t} = Σ_{j∈N_i} X_{j,t} when playing i,
// so the target is the arm maximizing u_i = Σ_{j∈N_i} μ_j. Because neighbor
// rewards are observed asynchronously, the side-reward observation counter
// advances only when the least-observed member of N_i is renewed (paper
// Eq. 44): Ob_i = min_{j∈N_i} O_j.
//
// Two estimators for B̄_i are provided:
//  * kPaired (faithful to the pseudocode): the m-th side-reward sample of
//    arm i pairs the m-th direct observation of every j ∈ N_i; needs per-arm
//    observation prefix sums (O(total observations) memory).
//  * kMeanSum: B̄_i = Σ_{j∈N_i} X̄_j over all observations (O(K) memory).
// Both are unbiased for u_i; the A3 ablation compares them empirically.
//
// Ob_i is kept incrementally rather than rescanned per refresh: ob_[i] is
// the minimum and at_min_[i] the number of j ∈ N_i whose O_j sits at it.
// An observation of arm j (O_j: c → c+1) costs one integer check per
// i ∈ N_j; Ob_i moves, to c+1, only when its last minimum leaves, and only
// then is N_i rescanned for the new at_min_[i]. The paired estimate reads
// nothing but Ob_i and prefix sums that are never rewritten, so B̄_i is
// cached too, recomputed (in closed-neighborhood order, as from scratch)
// exactly when Ob_i moves, and observe() marks stale exactly the arms
// whose Ob_i moved: a refresh is one log and one sqrt. The mean-sum B̄_i
// moves with every neighbor observation, so that estimator still sums
// N_i per refresh and marks the observed arms' closed neighborhoods.
//
// Theorem 3: R_n ≤ 49·K·sqrt(nK).
#pragma once

#include <vector>

#include "core/arm_stats.hpp"
#include "core/index_policy.hpp"

namespace ncb {

enum class SsrEstimator {
  kPaired,   ///< Pseudocode-faithful paired samples.
  kMeanSum,  ///< Sum of neighbor empirical means.
};

struct DflSsrOptions {
  SsrEstimator estimator = SsrEstimator::kPaired;
  std::uint64_t seed = 0x5eed5512;
};

class DflSsr final : public SingleIndexPolicy {
 public:
  explicit DflSsr(DflSsrOptions options = {});

  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

  /// Direct-observation count O_i; bounds-checked.
  [[nodiscard]] std::int64_t observation_count(ArmId i) const {
    return direct_.count(i);
  }
  /// Side-reward observation count Ob_i = min_{j∈N_i} O_j; bounds-checked.
  [[nodiscard]] std::int64_t side_observation_count(ArmId i) const {
    return ob_.at(static_cast<std::size_t>(i));
  }
  /// Current side-reward estimate B̄_i (0 when Ob_i = 0).
  [[nodiscard]] double side_reward_estimate(ArmId i) const;
  /// Index value of arm i at slot t (+inf when Ob_i = 0). The [0,K]-ranged
  /// side reward is used unnormalized, as in the pseudocode.
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;

 protected:
  void on_reset(const Graph& graph) override;
  [[nodiscard]] IndexRefreshMode refresh_mode() const override {
    return IndexRefreshMode::kIncremental;
  }
  [[nodiscard]] IndexRefresh refresh_index(ArmId i, TimeSlot t) const override;

 private:
  /// B̄_i of an in-range arm.
  [[nodiscard]] double estimate(std::size_t i) const;
  /// Recomputes ob_[i], at_min_[i] and (kPaired) paired_mean_[i] from N_i.
  void rescan_side_count(std::size_t i);

  DflSsrOptions options_;
  Graph graph_{0};  // copied at reset(); no external lifetime requirement
  ArmStatsTable direct_;                           // O_i and X̄_i
  std::vector<std::vector<double>> prefix_sums_;   // kPaired: per-arm Σ first m obs
  std::vector<std::int64_t> ob_;       // Ob_i
  std::vector<std::uint32_t> at_min_;  // |{j ∈ N_i : O_j = Ob_i}|
  std::vector<double> paired_mean_;    // kPaired: B̄_i at Ob_i (0 while 0)
};

}  // namespace ncb
