// The kEveryRound group-bound scan at real K: select() skips every group
// whose index upper bound is below the running maximum, and that skip must
// be exact — the same arm and the same tie-break draws as a full
// evaluation of every index on every select — while actually skipping
// most of the arms in steady state.
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_registry.hpp"
#include "core/ucb1.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

enum class Rewards { kBernoulli, kContinuous };

struct Case {
  std::string policy;
  std::size_t arms;
  Rewards rewards;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = info.param.policy == "ucb1" ? "ucb1" : "ucbn";
  name += "_K" + std::to_string(info.param.arms);
  name += info.param.rewards == Rewards::kBernoulli ? "_bernoulli"
                                                    : "_continuous";
  return name;
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.policy << " K=" << c.arms
      << (c.rewards == Rewards::kBernoulli ? " bernoulli" : " continuous");
}

class GroupBoundExactness : public testing::TestWithParam<Case> {};

// Two copies of one policy see the same script: observe-without-select
// bursts, slots that jump ahead or go back, and a reset mid-run. The
// reference calls invalidate_index_cache() before every select, which
// evaluates every index; the other runs the group-bound scan.
TEST_P(GroupBoundExactness, SelectsAndDrawsEqualFullEvaluation) {
  const Case& c = GetParam();
  Xoshiro256 gen(404 + c.arms);
  // ~4 neighbours per arm: UCB-N's side observations dirty a few groups.
  const Graph g = erdos_renyi(c.arms, 4.0 / static_cast<double>(c.arms), gen);
  const PolicyRegistry& registry = PolicyRegistry::instance();
  const auto lazy = registry.make_single_play(c.policy, 0, 11);
  const auto full = registry.make_single_play(c.policy, 0, 11);
  auto* lazy_idx = dynamic_cast<SingleIndexPolicy*>(lazy.get());
  auto* full_idx = dynamic_cast<SingleIndexPolicy*>(full.get());
  ASSERT_NE(lazy_idx, nullptr);
  ASSERT_NE(full_idx, nullptr);
  lazy->reset(g);
  full->reset(g);

  // Three Bernoulli levels make many arms share (count, mean) exactly, so
  // their indices tie; continuous rewards make ties rare.
  std::vector<double> means(c.arms);
  for (double& m : means) {
    m = 0.2 + 0.3 * static_cast<double>(gen.uniform_int(3));
  }
  Xoshiro256 rewards(77);
  Xoshiro256 actions(91);
  const auto reward = [&](ArmId j) {
    const double mu = means[static_cast<std::size_t>(j)];
    return c.rewards == Rewards::kBernoulli
               ? (rewards.bernoulli(mu) ? 1.0 : 0.0)
               : mu + rewards.uniform() - 0.5;
  };
  std::vector<Observation> batch;
  const auto observe_both = [&](ArmId arm, TimeSlot t) {
    batch.clear();
    for (const ArmId j : g.closed_neighborhood(arm)) {
      batch.push_back({j, reward(j)});
    }
    const ObservationSpan span(batch.data(), batch.size());
    lazy->observe(arm, t, span);
    full->observe(arm, t, span);
  };

  // After the reset, enough selects remain to visit every arm and run in
  // steady state, where most groups are skipped.
  const int steps = static_cast<int>(c.arms + c.arms / 2 + 4000);
  TimeSlot t = 0;
  for (int step = 0; step < steps; ++step) {
    if (step == 2000) {
      lazy->reset(g);
      full->reset(g);
      t = 0;
    }
    const std::uint64_t roll = actions.uniform_int(100);
    if (roll < 8 && t > 0) {
      const auto arm = static_cast<ArmId>(actions.uniform_int(c.arms));
      observe_both(arm, t);
      continue;
    }
    if (roll < 10 && t > 4) {
      t = 1 + static_cast<TimeSlot>(
                  actions.uniform_int(static_cast<std::uint64_t>(t - 1)));
    } else {
      t += 1 + static_cast<TimeSlot>(actions.uniform_int(3));
    }
    full_idx->invalidate_index_cache();
    const ArmId a = lazy->select(t);
    const ArmId b = full->select(t);
    ASSERT_EQ(a, b) << "step " << step << " t=" << t;
    ASSERT_EQ(lazy_idx->tie_break_draws(), full_idx->tie_break_draws())
        << "step " << step << " t=" << t;
    if (step % 1000 == 0) {
      // Skipped groups are evaluated on demand: the arrays agree bitwise.
      ASSERT_EQ(lazy_idx->cached_indices(), full_idx->cached_indices())
          << "step " << step;
    }
    observe_both(a, t);
  }
  EXPECT_LT(lazy_idx->groups_evaluated(), full_idx->groups_evaluated());
}

INSTANTIATE_TEST_SUITE_P(
    RealK, GroupBoundExactness,
    testing::Values(Case{"ucb1", 2048, Rewards::kBernoulli},
                    Case{"ucb1", 2048, Rewards::kContinuous},
                    Case{"ucb1", 10000, Rewards::kBernoulli},
                    Case{"ucb1", 10000, Rewards::kContinuous},
                    Case{"ucb-n", 2048, Rewards::kBernoulli},
                    Case{"ucb-n", 2048, Rewards::kContinuous},
                    Case{"ucb-n", 10000, Rewards::kBernoulli},
                    Case{"ucb-n", 10000, Rewards::kContinuous}),
    case_name);

// Exposes the UCB range refresh and its bound.
class ProbeUcb final : public UcbIndexPolicy {
 public:
  explicit ProbeUcb(double exploration) : UcbIndexPolicy(exploration, 1) {}
  using UcbIndexPolicy::refresh_indices;
  [[nodiscard]] std::string name() const override { return "probe"; }
  [[nodiscard]] std::string describe() const override { return "probe"; }
};

TEST(UcbIndexUpperBound, CoversTheIndexAtEverySlotUpToTheHorizon) {
  constexpr std::size_t kArms = 16;
  Xoshiro256 rng(2024);
  std::vector<double> out(kArms);
  // 1e308 overflows c·ln t to +inf for most slots: the index is +inf there.
  for (const double c : {2.0, 0.5, 1e-3, 0.0, 1e308}) {
    SCOPED_TRACE("c=" + std::to_string(c));
    ProbeUcb probe(c);
    for (int round = 0; round < 40; ++round) {
      // Arm i gets a random count of one random value, so its mean is that
      // value exactly. Means reach past the bonus on both sides, so the
      // sum can cancel.
      probe.reset(Graph(kArms));
      for (std::size_t i = 0; i < kArms; ++i) {
        const double value = (rng.uniform() - 0.5) * 8.0;
        const std::uint64_t count = 1 + rng.uniform_int(i < 8 ? 4 : 3000);
        for (std::uint64_t n = 0; n < count; ++n) {
          const Observation obs{static_cast<ArmId>(i), value};
          probe.observe(static_cast<ArmId>(i), 1, ObservationSpan(&obs, 1));
        }
      }
      for (int draw = 0; draw < 200; ++draw) {
        // Slot t, horizon t' ≥ t: short look-aheads like select()'s, and
        // long ones.
        const auto t = static_cast<TimeSlot>(1 + rng.uniform_int(1ULL << 40));
        const TimeSlot horizon =
            t + static_cast<TimeSlot>(rng.uniform_int(
                    draw % 2 == 0 ? 4 + static_cast<std::uint64_t>(t) / 512
                                  : static_cast<std::uint64_t>(t)));
        const auto arm = static_cast<ArmId>(rng.uniform_int(kArms));
        const auto k = static_cast<std::size_t>(arm);
        const double bound =
            probe.refresh_indices(t, horizon, k, k + 1, out.data());
        ASSERT_EQ(out[k], probe.index(arm, t));
        // The horizon itself, its neighbours below, slot t, and a random
        // earlier slot: where a non-monotone log would bite first.
        for (const TimeSlot u : {horizon, horizon - 1, horizon - 2, t,
                                 static_cast<TimeSlot>(1 + rng.uniform_int(
                                     static_cast<std::uint64_t>(horizon)))}) {
          ASSERT_GE(bound, probe.index(arm, u))
              << "arm " << arm << " t=" << t << " u=" << u
              << " horizon=" << horizon;
        }
      }
    }
  }
}

TEST(UcbIndexUpperBound, UnplayedArmIsUnbounded) {
  ProbeUcb probe(2.0);
  probe.reset(Graph(4));
  std::vector<double> out(4);
  EXPECT_EQ(probe.refresh_indices(100, 100, 0, 4, out.data()),
            std::numeric_limits<double>::infinity());
}

// At K = 10^4 with every arm played, UCB1's steady-state select must
// evaluate under 20% of the arms: a change that silently turns the skip
// off fails here instead of only running slower.
TEST(GroupBoundSkip, Ucb1EvaluatesFewArmsInSteadyState) {
  constexpr std::size_t kArms = 10000;
  const auto policy = PolicyRegistry::instance().make_single_play("ucb1", 0, 7);
  auto* idx = dynamic_cast<SingleIndexPolicy*>(policy.get());
  ASSERT_NE(idx, nullptr);
  policy->reset(Graph(kArms));
  Xoshiro256 rng(9);
  std::vector<double> means(kArms);
  for (double& m : means) m = rng.uniform();
  TimeSlot t = 0;
  const auto step = [&] {
    ++t;
    const ArmId a = policy->select(t);
    const Observation obs{a, means[static_cast<std::size_t>(a)] +
                                 rng.uniform() - 0.5};
    policy->observe(a, t, ObservationSpan(&obs, 1));
  };
  for (std::size_t i = 0; i < 2 * kArms; ++i) step();
  const std::uint64_t before = idx->groups_evaluated();
  constexpr int kSelects = 2000;
  for (int i = 0; i < kSelects; ++i) step();
  const double arms_per_select =
      static_cast<double>((idx->groups_evaluated() - before) *
                          kIndexGroupSize) /
      kSelects;
  EXPECT_LT(arms_per_select, 0.2 * kArms);

  // A full evaluation counts every group.
  const std::uint64_t full_before = idx->groups_evaluated();
  idx->invalidate_index_cache();
  step();
  EXPECT_EQ(idx->groups_evaluated() - full_before,
            (kArms + kIndexGroupSize - 1) / kIndexGroupSize);
}

}  // namespace
}  // namespace ncb
