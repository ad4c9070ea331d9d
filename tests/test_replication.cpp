#include "exp/shard_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/dfl_sso.hpp"
#include "core/moss.hpp"
#include "core/dfl_cso.hpp"
#include "graph/generators.hpp"

namespace ncb {
namespace {

BanditInstance small_instance() {
  Xoshiro256 rng(42);
  return random_bernoulli_instance(erdos_renyi(8, 0.4, rng), rng);
}

ReplicationOptions quick_options(std::size_t reps, TimeSlot horizon,
                                 ThreadPool* pool = nullptr) {
  ReplicationOptions o;
  o.replications = reps;
  o.master_seed = 1234;
  o.runner.horizon = horizon;
  o.pool = pool;
  return o;
}

SinglePolicyFactory sso_factory() {
  return [](std::uint64_t seed) -> std::unique_ptr<SinglePlayPolicy> {
    return std::make_unique<DflSso>(DflSsoOptions{.seed = seed});
  };
}

TEST(Replication, CountsAndSeriesLengths) {
  const auto inst = small_instance();
  const auto result = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, quick_options(5, 200));
  EXPECT_EQ(result.replications, 5u);
  EXPECT_EQ(result.per_slot_regret.length(), 200u);
  EXPECT_EQ(result.cumulative_regret.length(), 200u);
  EXPECT_EQ(result.final_cumulative.count(), 5u);
  EXPECT_DOUBLE_EQ(result.optimal_per_slot, inst.best_mean());
}

TEST(Replication, DeterministicRegardlessOfThreads) {
  const auto inst = small_instance();
  const auto sequential = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, quick_options(8, 300));
  ThreadPool pool(4);
  const auto parallel = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, quick_options(8, 300, &pool));
  // Shards merge in shard-index order, so the pool cannot change a bit.
  const auto a = sequential.cumulative_regret.means();
  const auto b = parallel.cumulative_regret.means();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "slot " << i;
  }
  EXPECT_EQ(sequential.final_cumulative.mean(),
            parallel.final_cumulative.mean());
}

TEST(Replication, DifferentSeedsGiveDifferentResults) {
  const auto inst = small_instance();
  auto opts1 = quick_options(4, 200);
  auto opts2 = quick_options(4, 200);
  opts2.master_seed = 9999;
  const auto r1 = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, opts1);
  const auto r2 = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, opts2);
  EXPECT_NE(r1.final_cumulative.mean(), r2.final_cumulative.mean());
}

TEST(Replication, AverageRegretIsCumulativeOverT) {
  const auto inst = small_instance();
  const auto result = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, quick_options(3, 100));
  const auto cum = result.cumulative_regret.means();
  const auto avg = result.average_regret();
  ASSERT_EQ(avg.size(), 100u);
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_NEAR(avg[i], cum[i] / static_cast<double>(i + 1), 1e-12);
  }
}

TEST(Replication, NullFactoryThrows) {
  const auto inst = small_instance();
  EXPECT_THROW((void)exp::run_sharded_single(nullptr, inst, Scenario::kSso,
                                               quick_options(2, 10)),
               std::invalid_argument);
}

TEST(Replication, CombinatorialDriverWorks) {
  const auto inst = small_instance();
  const auto family = std::make_shared<const FeasibleSet>(make_subset_family(
      std::make_shared<const Graph>(inst.graph()), 2));
  ThreadPool pool(2);
  auto opts = quick_options(4, 150, &pool);
  const auto result = exp::run_sharded_combinatorial(
      [family](std::uint64_t seed) -> std::unique_ptr<CombinatorialPolicy> {
        return std::make_unique<DflCso>(family, DflCsoOptions{.seed = seed});
      },
      inst, *family, Scenario::kCso, opts);
  EXPECT_EQ(result.replications, 4u);
  EXPECT_EQ(result.per_slot_regret.length(), 150u);
  EXPECT_GT(result.optimal_per_slot, 0.0);
}

TEST(Replication, PseudoRegretDecreasesForLearningPolicy) {
  // On an easy instance the average pseudo-regret over the last tenth must
  // be far below the first tenth.
  const auto inst = small_instance();
  const auto result = exp::run_sharded_single(
      sso_factory(), inst, Scenario::kSso, quick_options(10, 2000));
  const auto pseudo = result.per_slot_pseudo_regret.means();
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    head += pseudo[i];
    tail += pseudo[pseudo.size() - 1 - i];
  }
  EXPECT_LT(tail, head * 0.5);
}

}  // namespace
}  // namespace ncb
