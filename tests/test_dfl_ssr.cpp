#include "core/dfl_ssr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/arm_stats.hpp"
#include "graph/generators.hpp"

namespace ncb {
namespace {

std::vector<Observation> closed_obs(const Graph& g, ArmId played,
                                    const std::vector<double>& values) {
  std::vector<Observation> out;
  for (const ArmId j : g.closed_neighborhood(played)) {
    out.push_back({j, values[static_cast<std::size_t>(j)]});
  }
  return out;
}

TEST(DflSsr, ObCounterIsMinOverNeighborhood) {
  // Path 0-1-2: playing 0 observes {0,1}; playing 2 observes {1,2}.
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.5, 0.5}));
  // O = [1, 1, 0]. Ob_0 = min(O_0,O_1) = 1; Ob_1 = min over {0,1,2} = 0.
  EXPECT_EQ(policy.observation_count(0), 1);
  EXPECT_EQ(policy.observation_count(1), 1);
  EXPECT_EQ(policy.observation_count(2), 0);
  EXPECT_EQ(policy.side_observation_count(0), 1);
  EXPECT_EQ(policy.side_observation_count(1), 0);
  EXPECT_EQ(policy.side_observation_count(2), 0);

  policy.observe(2, 2, closed_obs(g, 2, {0.5, 0.5, 0.5}));
  // O = [1, 2, 1]. Ob_0 = 1, Ob_1 = 1, Ob_2 = 1.
  EXPECT_EQ(policy.side_observation_count(0), 1);
  EXPECT_EQ(policy.side_observation_count(1), 1);
  EXPECT_EQ(policy.side_observation_count(2), 1);
}

TEST(DflSsr, PairedEstimateMatchesHandComputation) {
  // Path 0-1: both arms always observed together, so pairing is direct.
  const Graph g = path_graph(2);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.2}, {1, 0.4}});
  policy.observe(0, 2, {{0, 0.6}, {1, 0.8}});
  // Ob_0 = 2; paired sums: (0.2+0.4) and (0.6+0.8); mean = 1.0.
  EXPECT_EQ(policy.side_observation_count(0), 2);
  EXPECT_NEAR(policy.side_reward_estimate(0), 1.0, 1e-12);
}

TEST(DflSsr, PairedEstimateUsesOnlyFirstObSamples) {
  // Path 0-1-2: arm 1 accumulates more observations than arm 2; the paired
  // estimator for arm 2 must use only the first Ob_2 samples of arm 1.
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  // Play 0 twice: arm0, arm1 observed with values below.
  policy.observe(0, 1, {{0, 0.0}, {1, 1.0}});
  policy.observe(0, 2, {{0, 0.0}, {1, 0.0}});
  // Play 2 once: arms 1, 2 observed (third observation of arm 1).
  policy.observe(2, 3, {{1, 0.0}, {2, 0.5}});
  // For arm 2: N_2 = {1, 2}; Ob_2 = min(3, 1) = 1. Paired sample m=1 pairs
  // arm 1's FIRST observation (1.0) with arm 2's first (0.5): estimate 1.5.
  EXPECT_EQ(policy.side_observation_count(2), 1);
  EXPECT_NEAR(policy.side_reward_estimate(2), 1.5, 1e-12);
}

TEST(DflSsr, MeanSumEstimateUsesAllSamples) {
  const Graph g = path_graph(3);
  DflSsr policy(DflSsrOptions{.estimator = SsrEstimator::kMeanSum});
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.0}, {1, 1.0}});
  policy.observe(0, 2, {{0, 0.0}, {1, 0.0}});
  policy.observe(2, 3, {{1, 0.0}, {2, 0.5}});
  // Arm 2 estimate = X̄_1 + X̄_2 = (1/3) + 0.5.
  EXPECT_NEAR(policy.side_reward_estimate(2), 1.0 / 3.0 + 0.5, 1e-12);
  EXPECT_EQ(policy.name(), "DFL-SSR(mean-sum)");
}

TEST(DflSsr, IndexInfiniteUntilWholeNeighborhoodObserved) {
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.5, 0.5, 0.5}));
  // Arm 1's neighborhood includes the still-unobserved arm 2.
  EXPECT_TRUE(std::isinf(policy.index(1, 2)));
  EXPECT_FALSE(std::isinf(policy.index(0, 2)));
}

TEST(DflSsr, SelectPrefersInfiniteIndex) {
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, closed_obs(g, 0, {0.9, 0.9, 0.9}));
  // Arms 1 and 2 still have Ob = 0 → infinite index → must be selected.
  const ArmId next = policy.select(2);
  EXPECT_TRUE(next == 1 || next == 2);
}

TEST(DflSsr, ConvergesToBestSideRewardArm) {
  // Star graph: hub 0 has u_0 = sum of all means — play counts should
  // concentrate on the hub even though leaf 1 has the best direct mean.
  const Graph g = star_graph(4);
  const std::vector<double> means{0.2, 0.9, 0.6, 0.5};
  DflSsr policy;
  policy.reset(g);
  Xoshiro256 rng(5);
  std::vector<std::int64_t> plays(4, 0);
  for (TimeSlot t = 1; t <= 4000; ++t) {
    const ArmId a = policy.select(t);
    ++plays[static_cast<std::size_t>(a)];
    std::vector<double> values(4);
    for (std::size_t i = 0; i < 4; ++i) values[i] = rng.bernoulli(means[i]) ? 1.0 : 0.0;
    policy.observe(a, t, closed_obs(g, a, values));
  }
  // Hub u_0 = 2.2 vs leaves u_i ≤ 1.1: the hub must dominate.
  EXPECT_GT(plays[0], 3000);
}

TEST(DflSsr, ResetClearsHistories) {
  const Graph g = path_graph(2);
  DflSsr policy;
  policy.reset(g);
  policy.observe(0, 1, {{0, 0.5}, {1, 0.5}});
  policy.reset(g);
  EXPECT_EQ(policy.observation_count(0), 0);
  EXPECT_EQ(policy.side_observation_count(0), 0);
  EXPECT_DOUBLE_EQ(policy.side_reward_estimate(0), 0.0);
}

TEST(DflSsr, PairedAndMeanSumAgreeWhenSynchronized) {
  // Complete graph: every play observes every arm, so the paired prefix and
  // the global mean coincide.
  const Graph g = complete_graph(3);
  DflSsr paired;
  DflSsr meansum(DflSsrOptions{.estimator = SsrEstimator::kMeanSum});
  paired.reset(g);
  meansum.reset(g);
  Xoshiro256 rng(11);
  for (TimeSlot t = 1; t <= 50; ++t) {
    std::vector<Observation> obs;
    for (ArmId i = 0; i < 3; ++i) obs.push_back({i, rng.uniform()});
    paired.observe(0, t, obs);
    meansum.observe(0, t, obs);
  }
  for (ArmId i = 0; i < 3; ++i) {
    EXPECT_NEAR(paired.side_reward_estimate(i),
                meansum.side_reward_estimate(i), 1e-9);
  }
}

/// From-scratch DFL-SSR state: every observation kept, Ob_i and B̄_i
/// recomputed from them in closed-neighborhood order on every query.
class ScratchSsr {
 public:
  explicit ScratchSsr(const Graph& g) : g_(g) { reset(); }

  void reset() {
    prefix_.assign(g_.num_vertices(), {});
    stats_.reset(g_.num_vertices());
  }

  void observe(const std::vector<Observation>& batch) {
    for (const Observation& obs : batch) {
      auto& ps = prefix_[static_cast<std::size_t>(obs.arm)];
      ps.push_back((ps.empty() ? 0.0 : ps.back()) + obs.value);
      stats_.add(obs.arm, obs.value);
    }
  }

  std::int64_t ob(ArmId i) const {
    std::int64_t ob = std::numeric_limits<std::int64_t>::max();
    for (const ArmId j : g_.closed_neighborhood(i)) {
      ob = std::min(ob, static_cast<std::int64_t>(
                            prefix_[static_cast<std::size_t>(j)].size()));
    }
    return ob;
  }

  double paired(ArmId i) const {
    const std::int64_t m = ob(i);
    if (m == 0) return 0.0;
    double total = 0.0;
    for (const ArmId j : g_.closed_neighborhood(i)) {
      total += prefix_[static_cast<std::size_t>(j)][static_cast<std::size_t>(m - 1)];
    }
    return total / static_cast<double>(m);
  }

  double mean_sum(ArmId i) const {
    double total = 0.0;
    for (const ArmId j : g_.closed_neighborhood(i)) total += stats_.mean(j);
    return total;
  }

 private:
  const Graph& g_;
  std::vector<std::vector<double>> prefix_;
  ArmStatsTable stats_;
};

// The incrementally kept Ob_i and B̄_i must equal a from-scratch min and sum
// after every observe(), for every arm: through sweep-like batches (a
// closed neighborhood), serve-like ones (one arm), batches hitting one
// neighborhood repeatedly, and a reset mid-run.
TEST(DflSsr, IncrementalStateEqualsFromScratchAfterEveryObserve) {
  Xoshiro256 gen(808);
  const Graph g = erdos_renyi(60, 0.15, gen);
  const std::size_t k = g.num_vertices();
  for (const SsrEstimator estimator :
       {SsrEstimator::kPaired, SsrEstimator::kMeanSum}) {
    const bool paired = estimator == SsrEstimator::kPaired;
    SCOPED_TRACE(paired ? "paired" : "mean-sum");
    DflSsr policy(DflSsrOptions{.estimator = estimator});
    ScratchSsr scratch(g);
    policy.reset(g);
    Xoshiro256 actions(17);
    Xoshiro256 rewards(29);
    std::vector<Observation> batch;
    TimeSlot t = 0;
    for (int step = 0; step < 3000; ++step) {
      if (step == 1500) {
        policy.reset(g);
        scratch.reset();
        t = 0;
      }
      const auto arm = static_cast<ArmId>(actions.uniform_int(k));
      const std::uint64_t kind = actions.uniform_int(3);
      batch.clear();
      if (kind == 0) {
        // Sweep-like: the played arm's closed neighborhood.
        for (const ArmId j : g.closed_neighborhood(arm)) {
          batch.push_back({j, rewards.uniform()});
        }
      } else if (kind == 1) {
        // Serve-like: the played arm alone.
        batch.push_back({arm, rewards.uniform()});
      } else {
        // One neighborhood hit repeatedly, its centre twice more.
        for (int rep = 0; rep < 3; ++rep) {
          for (const ArmId j : g.closed_neighborhood(arm)) {
            batch.push_back({j, rewards.uniform()});
          }
        }
        batch.push_back({arm, rewards.uniform()});
        batch.push_back({arm, rewards.uniform()});
      }
      ++t;
      policy.observe(arm, t, ObservationSpan(batch.data(), batch.size()));
      scratch.observe(batch);
      for (std::size_t i = 0; i < k; ++i) {
        const auto a = static_cast<ArmId>(i);
        ASSERT_EQ(policy.side_observation_count(a), scratch.ob(a))
            << "arm " << i << " step " << step;
        // Exact equality: the cached estimate is the from-scratch sum.
        ASSERT_EQ(policy.side_reward_estimate(a),
                  paired ? scratch.paired(a) : scratch.mean_sum(a))
            << "arm " << i << " step " << step;
      }
      if (step % 7 == 0) (void)policy.select(t);
    }
  }
}

TEST(DflSsr, StateAccessorsRejectOutOfRangeArms) {
  const Graph g = path_graph(3);
  DflSsr policy;
  policy.reset(g);
  EXPECT_THROW((void)policy.side_observation_count(3), std::out_of_range);
  EXPECT_THROW((void)policy.side_reward_estimate(3), std::out_of_range);
  EXPECT_THROW((void)policy.side_observation_count(-1), std::out_of_range);
}

}  // namespace
}  // namespace ncb
