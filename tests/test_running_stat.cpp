#include "util/running_stat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace ncb {
namespace {

TEST(RunningStat, EmptyDefaults) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStat, KnownMeanAndVariance) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, StdErrAndCi) {
  RunningStat s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 2));
  EXPECT_NEAR(s.stderr_mean(), s.stddev() / 10.0, 1e-12);
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * s.stderr_mean(), 1e-12);
}

TEST(RunningStat, MergeMatchesSequential) {
  Xoshiro256 rng(77);
  RunningStat whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    whole.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStat, RestoreMergeIsExact) {
  // The distributed-replay wire contract: shipping the raw Welford state
  // (count, mean, m2, min, max) and merging it into an empty accumulator
  // must reproduce the original bitwise — the exact-copy branch of merge.
  Xoshiro256 rng(20170605);
  RunningStat original;
  for (int i = 0; i < 777; ++i) original.add(rng.gaussian(0.3, 1.7));

  const RunningStat restored =
      RunningStat::restore(original.count(), original.mean(), original.m2(),
                           original.min(), original.max());
  RunningStat merged;
  merged.merge(restored);

  EXPECT_EQ(merged.count(), original.count());
  EXPECT_EQ(merged.mean(), original.mean());  // bitwise, not NEAR
  EXPECT_EQ(merged.m2(), original.m2());
  EXPECT_EQ(merged.min(), original.min());
  EXPECT_EQ(merged.max(), original.max());
  EXPECT_EQ(merged.variance(), original.variance());
  EXPECT_EQ(merged.stderr_mean(), original.stderr_mean());
}

TEST(SeriesStat, AggregatesPerIndex) {
  SeriesStat s;
  s.add_series({1.0, 2.0, 3.0});
  s.add_series({3.0, 4.0, 5.0});
  ASSERT_EQ(s.length(), 3u);
  EXPECT_EQ(s.means(), (std::vector<double>{2.0, 3.0, 4.0}));
  EXPECT_EQ(s.at(0).count(), 2u);
}

TEST(SeriesStat, LengthMismatchThrows) {
  SeriesStat s;
  s.add_series({1.0, 2.0});
  EXPECT_THROW(s.add_series({1.0}), std::invalid_argument);
}

TEST(SeriesStat, StddevPerIndex) {
  SeriesStat s;
  s.add_series({0.0});
  s.add_series({2.0});
  EXPECT_NEAR(s.stddevs()[0], std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace ncb
