// The group-skip argmax (util/argmax.hpp) at real K: select() skips every
// group whose cached bound is below the running maximum, and that skip
// must be exact — the same arm and the same tie-break draws as a full
// scan on every select — while actually skipping most of the arms in
// steady state. Covered for its three bound sources: kEveryRound index
// bounds (UCB1, UCB-N), kIncremental exact maxima (DFL-SSO; DFL-SSR, whose
// observe() marks only the arms whose Ob_i moved), and
// epsilon-greedy's cached mean maxima, the latter also through a pinned
// DecisionEngine event log at K = 10^4.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/arm_stats.hpp"
#include "core/epsilon_greedy.hpp"
#include "core/policy_registry.hpp"
#include "core/ucb1.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "util/argmax.hpp"
#include "util/rng.hpp"

namespace ncb {
namespace {

enum class Rewards { kBernoulli, kContinuous };

/// kBursts: side observations, observe-without-select bursts and slots
/// that jump ahead or go back. kServe: DecisionEngine's feedback pattern —
/// one slot per select, epsilon-mixed play, only the played arm observed.
/// kServeSide: the same lockstep, epsilon-mixed play with the played arm's
/// closed neighborhood observed, as a side-reward learner is fed.
enum class Dynamics { kBursts, kServe, kServeSide };

struct Case {
  std::string policy;
  std::size_t arms;
  Rewards rewards;
  Dynamics dynamics = Dynamics::kBursts;
};

/// Registry spec → test-name token ("ucb-n" → "ucbn").
std::string name_token(const std::string& spec) {
  std::string token;
  for (const char ch : spec) {
    if (ch == ':') break;
    if (ch != '-') token += ch;
  }
  return token;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = name_token(info.param.policy);
  name += "_K" + std::to_string(info.param.arms);
  name += info.param.rewards == Rewards::kBernoulli ? "_bernoulli"
                                                    : "_continuous";
  if (info.param.dynamics == Dynamics::kServe) name += "_serve";
  if (info.param.dynamics == Dynamics::kServeSide) name += "_serveside";
  return name;
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.policy << " K=" << c.arms
      << (c.rewards == Rewards::kBernoulli ? " bernoulli" : " continuous")
      << (c.dynamics == Dynamics::kServe       ? " serve"
          : c.dynamics == Dynamics::kServeSide ? " serveside"
                                               : "");
}

/// Per-arm reward means: three Bernoulli levels make many arms share
/// (count, mean) exactly, so their scores tie; continuous rewards make
/// ties rare.
std::vector<double> level_means(std::size_t arms, Xoshiro256& gen) {
  std::vector<double> means(arms);
  for (double& m : means) {
    m = 0.2 + 0.3 * static_cast<double>(gen.uniform_int(3));
  }
  return means;
}

double draw_reward(Rewards rewards, double mu, Xoshiro256& rng) {
  return rewards == Rewards::kBernoulli ? (rng.bernoulli(mu) ? 1.0 : 0.0)
                                        : mu + rng.uniform() - 0.5;
}

class GroupBoundExactness : public testing::TestWithParam<Case> {};

// Two copies of one policy see the same script (Dynamics) with a reset
// mid-run. The reference calls invalidate_index_cache() before every
// select, which evaluates every index and re-reads every group; the other
// runs the group-skip walk.
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

  const std::vector<double> means = level_means(c.arms, gen);
  Xoshiro256 rewards(77);
  Xoshiro256 actions(91);
  const auto reward = [&](ArmId j) {
    return draw_reward(c.rewards, means[static_cast<std::size_t>(j)], rewards);
  };
  const bool serve = c.dynamics != Dynamics::kBursts;
  std::vector<Observation> batch;
  const auto observe_both = [&](ArmId arm, TimeSlot t) {
    batch.clear();
    if (c.dynamics == Dynamics::kServe) {
      batch.push_back({arm, reward(arm)});
    } else {
      for (const ArmId j : g.closed_neighborhood(arm)) {
        batch.push_back({j, reward(j)});
      }
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
    if (serve) {
      ++t;
      full_idx->invalidate_index_cache();
      const ArmId a = lazy->select(t);
      ASSERT_EQ(a, full->select(t)) << "step " << step << " t=" << t;
      ASSERT_EQ(lazy_idx->tie_break_draws(), full_idx->tie_break_draws())
          << "step " << step << " t=" << t;
      // The engine's epsilon = 0.05 mix: a uniform arm is served instead.
      observe_both(roll < 5 ? static_cast<ArmId>(actions.uniform_int(c.arms))
                            : a,
                   t);
      continue;
    }
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
                    Case{"ucb-n", 10000, Rewards::kContinuous},
                    Case{"dfl-sso", 2048, Rewards::kBernoulli,
                         Dynamics::kServe},
                    Case{"dfl-sso", 2048, Rewards::kContinuous,
                         Dynamics::kServe},
                    Case{"dfl-sso", 10000, Rewards::kBernoulli,
                         Dynamics::kServe},
                    Case{"dfl-sso", 10000, Rewards::kContinuous,
                         Dynamics::kServe},
                    Case{"dfl-ssr", 2048, Rewards::kBernoulli},
                    Case{"dfl-ssr", 2048, Rewards::kContinuous,
                         Dynamics::kServeSide},
                    Case{"dfl-ssr", 10000, Rewards::kContinuous},
                    Case{"dfl-ssr", 10000, Rewards::kBernoulli,
                         Dynamics::kServeSide}),
    case_name);

// EpsilonGreedy as it was before its exploit step cached group maxima:
// the unvisited-arm cursor, one bernoulli(eps) draw, a uniform_int(K)
// exploration draw, and a full reservoir_argmax over the means. The
// cached walk must reproduce its arms and its draw sequence exactly.
class ReferenceEpsGreedy {
 public:
  ReferenceEpsGreedy(double epsilon, bool side, std::uint64_t seed)
      : epsilon_(epsilon), side_(side), seed_(seed), rng_(seed) {}

  void reset(std::size_t arms) {
    arms_ = arms;
    stats_.reset(arms);
    rng_ = Xoshiro256(seed_);
    cursor_ = 0;
  }

  ArmId select() {
    while (cursor_ < arms_ && stats_.counts()[cursor_] != 0) ++cursor_;
    if (cursor_ < arms_) return static_cast<ArmId>(cursor_);
    if (rng_.bernoulli(epsilon_)) {
      return static_cast<ArmId>(rng_.uniform_int(arms_));
    }
    return static_cast<ArmId>(reservoir_argmax(stats_.means(), arms_, rng_));
  }

  void observe(ArmId played, ObservationSpan observations) {
    for (const Observation& obs : observations) {
      if (side_ || obs.arm == played) stats_.add(obs.arm, obs.value);
    }
  }

 private:
  double epsilon_;
  bool side_;
  std::uint64_t seed_;
  Xoshiro256 rng_;
  std::size_t arms_ = 0;
  std::size_t cursor_ = 0;
  ArmStatsTable stats_;
};

struct EpsCase {
  bool side;
  std::size_t arms;
  double epsilon;
  Rewards rewards;
};

std::string eps_case_name(const testing::TestParamInfo<EpsCase>& info) {
  std::string name = info.param.side ? "epsgreedyside" : "epsgreedy";
  name += "_K" + std::to_string(info.param.arms);
  name += info.param.epsilon == 0.0 ? "_eps0" : "_eps01";
  name += info.param.rewards == Rewards::kBernoulli ? "_bernoulli"
                                                    : "_continuous";
  return name;
}

void PrintTo(const EpsCase& c, std::ostream* os) {
  *os << (c.side ? "eps-greedy-side" : "eps-greedy") << " K=" << c.arms
      << " eps=" << c.epsilon
      << (c.rewards == Rewards::kBernoulli ? " bernoulli" : " continuous");
}

class EpsGreedyExactness : public testing::TestWithParam<EpsCase> {};

// The registry's policy and the reference see the same script: side
// observations (consumed by eps-greedy-side only), observe-without-select
// bursts, slots that jump ahead or go back, and a reset mid-run.
TEST_P(EpsGreedyExactness, SelectsEqualFullScan) {
  const EpsCase& c = GetParam();
  Xoshiro256 gen(505 + c.arms);
  const Graph g = erdos_renyi(c.arms, 4.0 / static_cast<double>(c.arms), gen);
  std::ostringstream spec;
  spec << (c.side ? "eps-greedy-side" : "eps-greedy") << ":eps=" << c.epsilon;
  const auto policy =
      PolicyRegistry::instance().make_single_play(spec.str(), 0, 11);
  ReferenceEpsGreedy reference(c.epsilon, c.side, 11);
  policy->reset(g);
  reference.reset(c.arms);

  const std::vector<double> means = level_means(c.arms, gen);
  Xoshiro256 rewards(78);
  Xoshiro256 actions(92);
  std::vector<Observation> batch;
  const auto observe_both = [&](ArmId arm, TimeSlot t) {
    batch.clear();
    for (const ArmId j : g.closed_neighborhood(arm)) {
      batch.push_back(
          {j, draw_reward(c.rewards, means[static_cast<std::size_t>(j)],
                          rewards)});
    }
    const ObservationSpan span(batch.data(), batch.size());
    policy->observe(arm, t, span);
    reference.observe(arm, span);
  };

  // After the reset, enough selects remain to visit every arm and exploit
  // in steady state.
  const int steps = static_cast<int>(c.arms + c.arms / 2 + 4000);
  TimeSlot t = 0;
  for (int step = 0; step < steps; ++step) {
    if (step == 2000) {
      policy->reset(g);
      reference.reset(c.arms);
      t = 0;
    }
    const std::uint64_t roll = actions.uniform_int(100);
    if (roll < 8 && t > 0) {
      observe_both(static_cast<ArmId>(actions.uniform_int(c.arms)), t);
      continue;
    }
    if (roll < 10 && t > 4) {
      t = 1 + static_cast<TimeSlot>(
                  actions.uniform_int(static_cast<std::uint64_t>(t - 1)));
    } else {
      t += 1 + static_cast<TimeSlot>(actions.uniform_int(3));
    }
    const ArmId a = policy->select(t);
    ASSERT_EQ(a, reference.select()) << "step " << step << " t=" << t;
    observe_both(a, t);
  }
}

std::vector<EpsCase> eps_cases() {
  std::vector<EpsCase> cases;
  for (const bool side : {false, true}) {
    for (const std::size_t arms : {std::size_t{2048}, std::size_t{10000}}) {
      for (const double epsilon : {0.0, 0.1}) {
        for (const Rewards rewards :
             {Rewards::kBernoulli, Rewards::kContinuous}) {
          cases.push_back({side, arms, epsilon, rewards});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RealK, EpsGreedyExactness,
                         testing::ValuesIn(eps_cases()), eps_case_name);

// At K = 10^4 under the engine's feedback pattern (one observed arm per
// select), the exploit walk must read under 10% of the mean groups: the
// observed arm's group plus the few that hold a running maximum. A change
// that silently reads every group fails here instead of only running
// slower.
TEST(GroupBoundSkip, EpsGreedyReadsFewGroupsInSteadyState) {
  constexpr std::size_t kArms = 10000;
  EpsilonGreedyOptions options;
  options.epsilon = 0.0;
  EpsilonGreedy policy(options);
  policy.reset(Graph(kArms));
  Xoshiro256 rng(19);
  std::vector<double> means(kArms);
  for (double& m : means) m = rng.uniform();
  TimeSlot t = 0;
  const auto step = [&] {
    ++t;
    // Engine-style epsilon = 0.05 mix: a uniform arm is served instead.
    ArmId a = policy.select(t);
    if (rng.bernoulli(0.05)) a = static_cast<ArmId>(rng.uniform_int(kArms));
    const Observation obs{a, means[static_cast<std::size_t>(a)] +
                                 rng.uniform() - 0.5};
    policy.observe(a, t, ObservationSpan(&obs, 1));
  };
  for (std::size_t i = 0; i < 2 * kArms; ++i) step();
  const std::uint64_t before = policy.groups_evaluated();
  constexpr int kSelects = 2000;
  for (int i = 0; i < kSelects; ++i) step();
  const double groups_per_select =
      static_cast<double>(policy.groups_evaluated() - before) / kSelects;
  EXPECT_LT(groups_per_select,
            0.1 * static_cast<double>(kArms / kIndexGroupSize));
}

std::uint64_t fnv1a_bytes(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

// The serving path end to end at a K where the exploit walk skips groups
// (SelectGoldens' K = 25 is a single group): 20k lockstep decide/report
// calls on an eps-greedy:eps=0 engine with engine epsilon 0.05 and
// Bernoulli rewards. The event log — every action, propensity and reward
// in decision order — is pinned by its FNV-1a hash, captured before the
// exploit step cached its group maxima.
constexpr std::uint64_t kEngineLogHash = 0x66253aa2d076ef35ULL;

TEST(EngineLogGolden, EpsGreedyAtTenThousandArms) {
  constexpr std::size_t kArms = 10000;
  constexpr int kRequests = 20000;
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "ncb_group_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  const std::filesystem::path dir = dir_template;
  const std::string path = (dir / "engine.ncbl").string();
  {
    obs::MetricsRegistry registry;
    serve::EventLog::Options log_options;
    log_options.path = path;
    log_options.metrics = &registry;
    serve::EventLog log(log_options);
    serve::EngineOptions options;
    options.policy_spec = "eps-greedy:eps=0";
    options.epsilon = 0.05;
    options.metrics = &registry;
    serve::DecisionEngine engine(Graph(kArms), options, &log);
    Xoshiro256 gen(6060);
    std::vector<double> means(kArms);
    for (double& m : means) m = 0.5 * gen.uniform();
    for (int i = 0; i < kRequests; ++i) {
      const std::string key = "user-" + std::to_string(gen.uniform_int(4000));
      const serve::Decision d = engine.decide(key);
      const double mu = means[static_cast<std::size_t>(d.action)];
      ASSERT_TRUE(engine.report(d.decision_id, gen.bernoulli(mu) ? 1.0 : 0.0));
    }
    log.close();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  EXPECT_EQ(fnv1a_bytes(bytes), kEngineLogHash)
      << "actual hash 0x" << std::hex << fnv1a_bytes(bytes);
}

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
