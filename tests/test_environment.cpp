#include "env/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "graph/generators.hpp"

namespace ncb {
namespace {

BanditInstance make_path_instance() {
  return bernoulli_instance(path_graph(4), {0.1, 0.8, 0.3, 0.6});
}

TEST(Environment, AdvanceDrawsEveryArm) {
  Environment env(make_path_instance(), 1);
  const auto& rewards = env.advance();
  EXPECT_EQ(rewards.size(), 4u);
  EXPECT_EQ(env.slots_drawn(), 1);
  for (const double r : rewards) EXPECT_TRUE(r == 0.0 || r == 1.0);
}

TEST(Environment, DeterministicGivenSeed) {
  Environment a(make_path_instance(), 99), b(make_path_instance(), 99);
  for (int t = 0; t < 200; ++t) EXPECT_EQ(a.advance(), b.advance());
}

TEST(Environment, DifferentSeedsDiffer) {
  Environment a(make_path_instance(), 1), b(make_path_instance(), 2);
  int diffs = 0;
  for (int t = 0; t < 100; ++t) {
    if (a.advance() != b.advance()) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Environment, EmpiricalMeansConverge) {
  Environment env(make_path_instance(), 5);
  std::vector<double> sums(4, 0.0);
  const int n = 100000;
  for (int t = 0; t < n; ++t) {
    const auto& r = env.advance();
    for (std::size_t i = 0; i < 4; ++i) sums[i] += r[i];
  }
  const auto& means = env.instance().means();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(sums[i] / n, means[i], 0.01) << "arm " << i;
  }
}

TEST(Environment, StrategyRewardIsComponentSum) {
  Environment env(make_path_instance(), 3);
  const auto& r = env.advance();
  EXPECT_DOUBLE_EQ(env.strategy_reward({0, 2}), r[0] + r[2]);
  EXPECT_DOUBLE_EQ(env.strategy_reward({1}), r[1]);
}

TEST(Environment, SideRewardIsClosedNeighborhoodSum) {
  Environment env(make_path_instance(), 4);
  const auto& r = env.advance();
  EXPECT_DOUBLE_EQ(env.side_reward(0), r[0] + r[1]);
  EXPECT_DOUBLE_EQ(env.side_reward(1), r[0] + r[1] + r[2]);
  EXPECT_DOUBLE_EQ(env.side_reward(3), r[2] + r[3]);
}

TEST(Environment, StrategySideRewardIsCoverageSum) {
  Environment env(make_path_instance(), 6);
  const auto& r = env.advance();
  // Y({0,2}) = {0,1,2,3}.
  EXPECT_DOUBLE_EQ(env.strategy_side_reward({0, 2}), r[0] + r[1] + r[2] + r[3]);
  // Y({3}) = {2,3}.
  EXPECT_DOUBLE_EQ(env.strategy_side_reward({3}), r[2] + r[3]);
}

TEST(Environment, RewardsAccessorMatchesLastAdvance) {
  Environment env(make_path_instance(), 7);
  const auto snapshot = env.advance();
  EXPECT_EQ(env.rewards(), snapshot);
}

TEST(Environment, CopiesInstance) {
  auto inst = make_path_instance();
  Environment env(inst, 8);
  EXPECT_EQ(env.num_arms(), 4u);
  EXPECT_EQ(env.instance().means(), inst.means());
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Draws `slots` rows from an Environment and, from the same seed, the
/// hand-written per-arm loop over the virtual Distribution::sample that
/// every row must equal bit for bit.
void expect_rows_match_per_arm_sampling(const BanditInstance& inst,
                                        std::uint64_t seed, int slots) {
  Environment env(inst, seed);
  Xoshiro256 ref(seed);
  for (int t = 0; t < slots; ++t) {
    const std::vector<double>& row = env.advance();
    ASSERT_EQ(row.size(), inst.num_arms());
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double want = inst.arm(static_cast<ArmId>(i)).sample(ref);
      ASSERT_EQ(bits_of(row[i]), bits_of(want))
          << "slot " << t << " arm " << i << ": " << row[i] << " vs " << want;
    }
  }
}

BanditInstance constant_p_instance(std::size_t k, double p) {
  return bernoulli_instance(empty_graph(k), std::vector<double>(k, p));
}

TEST(EnvironmentBernoulliRow, ThresholdsAreCeilOfPTimesTwoTo53) {
  const double tiny = std::ldexp(1.0, -53);
  const BanditInstance inst =
      bernoulli_instance(empty_graph(4), {tiny, 0.5, 1.0 - tiny, 1e-300});
  const std::vector<std::uint64_t>& thr = inst.bernoulli_thresholds();
  ASSERT_EQ(thr.size(), 4u);
  EXPECT_EQ(thr[0], 1u);                           // hit iff the draw is 0
  EXPECT_EQ(thr[1], std::uint64_t{1} << 52);
  EXPECT_EQ(thr[2], (std::uint64_t{1} << 53) - 1);  // miss iff it is 2^53-1
  EXPECT_EQ(thr[3], 1u);
  // Copies keep the row kernel.
  const BanditInstance copy(inst);
  EXPECT_EQ(copy.bernoulli_thresholds(), thr);
}

TEST(EnvironmentBernoulliRow, RowEqualsPerArmSamplingBitForBit) {
  const double tiny = std::ldexp(1.0, -53);
  for (const std::size_t k : {std::size_t{1}, std::size_t{100},
                              std::size_t{10000}}) {
    for (const double p : {tiny, 0.5, 1.0 - tiny}) {
      SCOPED_TRACE("K=" + std::to_string(k) + " p=" + std::to_string(p));
      const BanditInstance inst = constant_p_instance(k, p);
      ASSERT_EQ(inst.bernoulli_thresholds().size(), k);
      expect_rows_match_per_arm_sampling(inst, 1000 + k, 1000);
    }
    SCOPED_TRACE("K=" + std::to_string(k) + " random p");
    Xoshiro256 gen(31 + k);
    const BanditInstance inst = random_bernoulli_instance(empty_graph(k), gen);
    ASSERT_EQ(inst.bernoulli_thresholds().size(), k);
    expect_rows_match_per_arm_sampling(inst, 2000 + k, 1000);
  }
}

TEST(EnvironmentBernoulliRow, OtherArmsKeepThePerArmPath) {
  // A p = 0 or p = 1 arm consumes no draw and a Beta arm draws its own way:
  // one such arm among Bernoulli arms sends the whole row down the per-arm
  // path, which must still equal per-arm sampling.
  for (const std::size_t k : {std::size_t{1}, std::size_t{100},
                              std::size_t{10000}}) {
    Xoshiro256 gen(57 + k);
    const BanditInstance base = random_bernoulli_instance(empty_graph(k), gen);
    for (const char* odd : {"p=0", "p=1", "beta"}) {
      SCOPED_TRACE("K=" + std::to_string(k) + " with one " + odd + " arm");
      std::vector<DistributionPtr> arms;
      for (std::size_t i = 0; i < k; ++i) {
        arms.push_back(base.arm(static_cast<ArmId>(i)).clone());
      }
      const std::size_t at = k / 2;
      if (std::string(odd) == "beta") {
        arms[at] = std::make_unique<BetaDist>(2.0, 3.0);
      } else {
        arms[at] = std::make_unique<BernoulliDist>(odd[2] == '0' ? 0.0 : 1.0);
      }
      const BanditInstance inst(empty_graph(k), std::move(arms));
      EXPECT_TRUE(inst.bernoulli_thresholds().empty());
      expect_rows_match_per_arm_sampling(inst, 3000 + k, 1000);
    }
  }
}

}  // namespace
}  // namespace ncb
