// Counterfactual replay & offline policy evaluation (src/replay/).
//
// The load-bearing pins:
//  - the IPS estimate of the *logging* policy replayed at matched
//    graph/seed/epsilon equals the log's own empirical mean reward
//    EXACTLY (bitwise), with ESS == n and every weight == 1.0;
//  - importance weights are bounded by the epsilon propensity floor the
//    engine logs (p >= eps/K), which bounds the estimator variance;
//  - a candidate's replay estimate agrees with an exact on-policy run of
//    that candidate at matched seeds (statistically, within its own SE);
//  - replaying the same log twice is bit-identical, down to the rendered
//    panel JSON bytes;
//  - the join, the DR model and every candidate join a repeated open
//    decision_id to its first decision, and score_candidate rejects the
//    inputs a sharded worker takes off the wire when they cannot be priced;
//  - a replay worker refuses an announced event stream its chunks could
//    not carry instead of trying to reserve it, and refuses an event
//    chunk whose last record is cut short.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/emitters.hpp"
#include "replay/dispatch.hpp"
#include "replay/estimators.hpp"
#include "replay/replay.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"
#include "wire/frame.hpp"

namespace ncb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ncb_replay_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// Deterministic per-arm Bernoulli means spread over [0.15, 0.85].
double arm_mean(ArmId arm) {
  const std::uint64_t h = (static_cast<std::uint64_t>(arm) + 1) * 2654435761ULL;
  return 0.15 + 0.7 * static_cast<double>(h % 97) / 96.0;
}

struct ServeSetup {
  std::string policy_spec = "eps-greedy:eps=0";
  double epsilon = 0.2;
  std::uint64_t seed = 99;
  std::size_t arms = 30;
  double edge_prob = 0.3;
  std::size_t horizon = 4000;
  std::size_t num_keys = 16;
  std::uint64_t reward_seed = 4242;
  /// Share of decisions whose feedback is never reported.
  double lost = 0.0;
  /// Feedbacks held back before one is reported; 0 reports each at once.
  std::size_t delay = 0;
};

Graph make_graph(const ServeSetup& setup) {
  ExperimentConfig config;
  config.graph_family = GraphFamily::kErdosRenyi;
  config.num_arms = setup.arms;
  config.edge_probability = setup.edge_prob;
  config.seed = setup.seed;
  return build_graph(config);
}

/// Drives one policy online (the exact serve decide/report loop) and logs
/// to `log_path` when non-empty. Returns the empirical mean of the reported
/// rewards. Rewards are Bernoulli(arm_mean(action)) drawn from a
/// counter-based stream keyed by decision_id, so two runs at matched seeds
/// face the same reward randomness per decision. `setup.lost` drops a share
/// of the feedbacks; with `setup.delay` > 0 feedbacks wait until more than
/// that many are held, and a random held one is reported each time — late
/// and out of order.
double drive_engine(const ServeSetup& setup, const std::string& policy_spec,
                    const std::string& log_path) {
  const Graph graph = make_graph(setup);
  std::unique_ptr<serve::EventLog> log;
  if (!log_path.empty()) {
    log = std::make_unique<serve::EventLog>(
        serve::EventLog::Options{log_path, 64 * 1024, 50});
  }
  serve::EngineOptions options;
  options.policy_spec = policy_spec;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  serve::DecisionEngine engine(graph, options, log.get());
  Xoshiro256 feedback_rng(setup.reward_seed + 1);
  std::vector<std::pair<std::uint64_t, double>> held;
  double reward_sum = 0.0;
  std::size_t reported = 0;
  const auto report_one = [&] {
    std::swap(held[feedback_rng.uniform_int(held.size())], held.back());
    EXPECT_TRUE(engine.report(held.back().first, held.back().second));
    reward_sum += held.back().second;
    ++reported;
    held.pop_back();
  };
  for (std::size_t i = 0; i < setup.horizon; ++i) {
    const std::string key = "user" + std::to_string(i % setup.num_keys);
    const serve::Decision decision = engine.decide(key);
    Xoshiro256 reward_rng(derive_seed_at(setup.reward_seed,
                                         decision.decision_id));
    const double reward =
        reward_rng.bernoulli(arm_mean(decision.action)) ? 1.0 : 0.0;
    if (setup.lost > 0.0 && feedback_rng.uniform() < setup.lost) continue;
    held.emplace_back(decision.decision_id, reward);
    while (held.size() > setup.delay) report_one();
  }
  while (!held.empty()) report_one();
  if (log) log->close();
  return reward_sum / static_cast<double>(reported);
}

TEST(EventLogJoin, JoinsOrphansAndDuplicates) {
  TempDir tmp;
  const std::string path = tmp.file("join.ncbl");
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(1, "alice", 3, 0.5);
    log.append_decision(2, "bob", 4, 0.25);
    log.append_feedback(1, 1.0);
    log.append_feedback(1, 0.0);   // duplicate
    log.append_feedback(99, 1.0);  // orphan
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  const serve::EventLogJoin join = serve::join_event_log(scan);
  EXPECT_EQ(join.decisions, 2u);
  EXPECT_EQ(join.joined, 1u);
  EXPECT_EQ(join.orphan_feedbacks, 1u);
  EXPECT_EQ(join.duplicate_feedbacks, 1u);
  EXPECT_EQ(join.min_propensity, 0.25);
  ASSERT_EQ(join.events.size(), 2u);
  EXPECT_EQ(join.events[0].key, "alice");
  EXPECT_TRUE(join.events[0].has_reward);
  EXPECT_EQ(join.events[0].reward, 1.0);  // first feedback wins
  EXPECT_FALSE(join.events[1].has_reward);
}

TEST(EventLogJoin, NonPositivePropensityThrows) {
  TempDir tmp;
  const std::string path = tmp.file("bad.ncbl");
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(1, "alice", 0, 0.0);
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  EXPECT_THROW((void)serve::join_event_log(scan), std::invalid_argument);
}

/// One join rule for every reader: a decision repeating an id that is
/// still open never joins, so the first decision keeps the id. The join,
/// the DR model and every candidate must credit arm 3's reward to arm 3,
/// and the second feedback for id 1 is a duplicate nobody scores.
TEST(ReplayPanel, RepeatedOpenDecisionIdJoinsTheFirstDecision) {
  TempDir tmp;
  const std::string path = tmp.file("repeat.ncbl");
  // Uniform pricing (epsilon 1) at p = 1/K makes every weight exactly 1.
  constexpr double kPropensity = 1.0 / 5.0;
  {
    serve::EventLog log({path, 64 * 1024, 50});
    log.append_decision(2, "bob", 0, kPropensity);
    log.append_feedback(2, 0.0);
    log.append_decision(1, "alice", 3, kPropensity);
    log.append_decision(1, "alice", 4, kPropensity);  // id 1 still open
    log.append_feedback(1, 1.0);
    log.append_feedback(1, 0.25);  // duplicate
    log.close();
  }
  const serve::EventLogScan scan = serve::read_event_log(path);
  const serve::EventLogJoin join = serve::join_event_log(scan);
  EXPECT_EQ(join.joined, 2u);
  EXPECT_EQ(join.duplicate_feedbacks, 1u);
  EXPECT_EQ(join.orphan_feedbacks, 0u);
  ASSERT_EQ(join.events.size(), 3u);
  EXPECT_TRUE(join.events[1].has_reward);
  EXPECT_EQ(join.events[1].action, 3);
  EXPECT_EQ(join.events[1].reward, 1.0);
  EXPECT_FALSE(join.events[2].has_reward);

  ExperimentConfig config;
  config.graph_family = GraphFamily::kComplete;
  config.num_arms = 5;
  replay::ReplayOptions options;
  options.epsilon = 1.0;
  const replay::PanelResult panel = replay::replay_panel(
      build_graph(config), scan, {"eps-greedy:eps=0", "ucb1", "random"},
      options);
  EXPECT_EQ(panel.joined, 2u);
  EXPECT_EQ(panel.duplicate_feedbacks, 1u);
  EXPECT_EQ(panel.empirical_mean, 0.5);
  ASSERT_EQ(panel.arm_model.size(), 5u);
  EXPECT_EQ(panel.arm_model[3], 1.0);  // arm 3 earned the joined reward
  EXPECT_EQ(panel.arm_model[4], 0.5);  // arm 4 has none: the global mean
  for (const replay::CandidateSummary& candidate : panel.candidates) {
    SCOPED_TRACE(candidate.spec);
    EXPECT_EQ(candidate.decisions, 3u);
    EXPECT_EQ(candidate.events, 2u);  // the duplicate is not scored
    EXPECT_EQ(candidate.ips_mean, 0.5);
    EXPECT_EQ(candidate.max_weight, 1.0);
    // Each DR term is direct + (r - m(a)); r - m(a) is 0 for both events
    // only when the candidate, too, reads id 1's reward as arm 3's.
    EXPECT_EQ(candidate.dr_mean, panel.model_arm_average);
  }
}

/// A sharded replay worker takes records, the arm model and epsilon off
/// the wire, so score_candidate itself rejects inputs the coordinator's
/// join would have: each bad input below must throw, never index or
/// divide on it.
TEST(ReplayPanel, ScoreCandidateRejectsBadInputs) {
  ExperimentConfig config;
  config.graph_family = GraphFamily::kComplete;
  config.num_arms = 4;
  const Graph graph = build_graph(config);
  const std::vector<double> model(4, 0.5);
  replay::ReplayOptions options;
  options.epsilon = 0.1;
  const auto records_with = [](ArmId action, double propensity) {
    std::vector<serve::EventRecord> records(2);
    records[0].type = serve::EventType::kDecision;
    records[0].decision_id = 1;
    records[0].key = "alice";
    records[0].action = action;
    records[0].propensity = propensity;
    records[1].type = serve::EventType::kFeedback;
    records[1].decision_id = 1;
    records[1].reward = 1.0;
    return records;
  };
  const auto score = [&](const std::vector<serve::EventRecord>& records,
                         const replay::ReplayOptions& opts,
                         const std::vector<double>& arm_model) {
    return replay::score_candidate(graph, records, "ucb1", opts, arm_model,
                                   0.5);
  };

  EXPECT_EQ(score(records_with(2, 0.5), options, model).ips_stat.count(), 1u);
  // Logged action outside the graph's arms.
  EXPECT_THROW(score(records_with(4, 0.5), options, model),
               std::invalid_argument);
  EXPECT_THROW(score(records_with(-1, 0.5), options, model),
               std::invalid_argument);
  // Arm model sized for another graph.
  EXPECT_THROW(score(records_with(2, 0.5), options, {0.5, 0.5, 0.5}),
               std::invalid_argument);
  // Epsilon outside [0, 1].
  replay::ReplayOptions bad_eps = options;
  bad_eps.epsilon = 1.5;
  EXPECT_THROW(score(records_with(2, 0.5), bad_eps, model),
               std::invalid_argument);
  bad_eps.epsilon = std::nan("");
  EXPECT_THROW(score(records_with(2, 0.5), bad_eps, model),
               std::invalid_argument);
  // Non-positive propensity.
  EXPECT_THROW(score(records_with(2, 0.0), options, model),
               std::invalid_argument);
  EXPECT_THROW(score(records_with(2, -0.5), options, model),
               std::invalid_argument);
  EXPECT_THROW(score(records_with(2, std::nan("")), options, model),
               std::invalid_argument);
}

TEST(Estimators, AccumulatorFormulas) {
  replay::EstimatorAccumulator acc;
  acc.add(/*weight=*/2.0, /*reward=*/1.0, /*direct=*/0.5, /*model=*/0.25);
  acc.add(/*weight=*/0.5, /*reward=*/0.0, /*direct=*/0.5, /*model=*/0.75);
  EXPECT_EQ(acc.events(), 2u);
  EXPECT_DOUBLE_EQ(acc.ips().mean(), (2.0 * 1.0 + 0.5 * 0.0) / 2.0);
  EXPECT_DOUBLE_EQ(acc.snips(), (2.0 * 1.0) / 2.5);
  EXPECT_DOUBLE_EQ(acc.ess(), 2.5 * 2.5 / (4.0 + 0.25));
  EXPECT_DOUBLE_EQ(acc.max_weight(), 2.0);
  // DR terms: 0.5 + 2*(1-0.25) = 2.0 and 0.5 + 0.5*(0-0.75) = 0.125.
  EXPECT_DOUBLE_EQ(acc.dr().mean(), (2.0 + 0.125) / 2.0);
}

TEST(Estimators, RewardModelFallsBackToGlobalMean) {
  replay::RewardModel model(3);
  model.observe(0, 1.0);
  model.observe(0, 0.0);
  model.observe(1, 1.0);
  EXPECT_DOUBLE_EQ(model.value(0), 0.5);
  EXPECT_DOUBLE_EQ(model.value(1), 1.0);
  // Arm 2 never rewarded: global mean of {1, 0, 1}.
  EXPECT_DOUBLE_EQ(model.value(2), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(model.arm_average(), (0.5 + 1.0 + 2.0 / 3.0) / 3.0);
}

/// The construction identity: the logging policy replayed at matched
/// graph/seed/epsilon reprices every logged action at its logged
/// propensity, so every weight is exactly 1.0 and IPS collapses onto the
/// log's own empirical reward sequence — equal to the last bit. It must
/// hold for loggers whose select depends on t, and when feedback is lost
/// or arrives late and out of order.
TEST(ReplayPanel, LoggingPolicyIpsIdentityIsExact) {
  struct Feedback {
    const char* name;
    double lost;
    std::size_t delay;
  };
  const Feedback patterns[] = {{"lockstep", 0.0, 0},
                               {"lost", 0.05, 0},
                               {"delayed", 0.0, 24},
                               {"lost+delayed", 0.05, 24}};
  for (const char* logger : {"eps-greedy:eps=0", "ucb1", "dfl-sso"}) {
    for (const Feedback& feedback : patterns) {
      SCOPED_TRACE(std::string(logger) + ", " + feedback.name);
      TempDir tmp;
      ServeSetup setup;
      setup.lost = feedback.lost;
      setup.delay = feedback.delay;
      const std::string path = tmp.file("serve.ncbl");
      const double online_mean = drive_engine(setup, logger, path);

      const serve::EventLogScan scan = serve::read_event_log(path);
      EXPECT_FALSE(scan.truncated_tail);
      replay::ReplayOptions options;
      options.epsilon = setup.epsilon;
      options.seed = setup.seed;
      const replay::PanelResult panel =
          replay::replay_panel(make_graph(setup), scan, {logger}, options);

      EXPECT_EQ(panel.decisions, setup.horizon);
      EXPECT_EQ(panel.joined, panel.feedbacks);
      if (feedback.lost > 0.0) {
        EXPECT_LT(panel.joined, setup.horizon);
      } else {
        EXPECT_EQ(panel.joined, setup.horizon);
      }
      // Welford's running mean and a plain sum over n round differently, by
      // up to 14 DBL_EPSILON relative on these logs; on the lockstep
      // eps-greedy:eps=0 log they agree, and that case keeps its exact checks.
      const bool exact_mean = std::string(logger) == "eps-greedy:eps=0" &&
                              feedback.lost == 0.0 && feedback.delay == 0;
      if (exact_mean) {
        EXPECT_DOUBLE_EQ(panel.empirical_mean, online_mean);
      } else {
        EXPECT_NEAR(panel.empirical_mean, online_mean,
                    32 * DBL_EPSILON * std::abs(online_mean));
      }
      const replay::CandidateSummary& replayed = panel.candidates.at(0);
      EXPECT_EQ(replayed.decisions, setup.horizon);
      EXPECT_EQ(replayed.events, panel.joined);
      // Bitwise, not approximate: == on doubles is the point of the test.
      EXPECT_EQ(replayed.ips_mean, panel.empirical_mean);
      EXPECT_EQ(replayed.ips_variance, panel.empirical_variance);
      // SNIPS is sum(1 * r) / sum(1) over the feedbacks in log order: the
      // plain sum the online run divided.
      EXPECT_EQ(replayed.snips, online_mean);
      if (exact_mean) {
        EXPECT_EQ(replayed.snips, panel.empirical_mean);
      }
      EXPECT_EQ(replayed.ess, static_cast<double>(panel.joined));
      EXPECT_EQ(replayed.max_weight, 1.0);
      // The replayed sampled-action stream reproduces the served actions.
      EXPECT_EQ(replayed.matched, replayed.events);
    }
  }
}

/// Engine-logged propensities sit on the eps/K floor, which caps every
/// importance weight at (1 - eps + eps/K) / (eps/K) and therefore bounds
/// the per-term magnitude and the sample variance of any candidate.
TEST(ReplayPanel, WeightsAndVarianceBoundedByPropensityFloor) {
  TempDir tmp;
  ServeSetup setup;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);

  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const replay::PanelResult panel = replay::replay_panel(
      make_graph(setup), scan, {"ucb1", "dfl-sso", "random"}, options);

  const double floor =
      options.epsilon / static_cast<double>(setup.arms);
  EXPECT_GE(panel.min_propensity, floor);
  const double max_q = 1.0 - options.epsilon + floor;
  const double weight_cap = max_q / floor;
  for (const replay::CandidateSummary& candidate : panel.candidates) {
    EXPECT_EQ(candidate.events, setup.horizon) << candidate.spec;
    EXPECT_LE(candidate.max_weight, weight_cap) << candidate.spec;
    EXPECT_GT(candidate.ess, 0.0) << candidate.spec;
    EXPECT_LE(candidate.ess, static_cast<double>(setup.horizon))
        << candidate.spec;
    // Rewards are {0,1}, so every IPS term lies in [0, weight_cap] and the
    // sample variance cannot exceed the squared range.
    EXPECT_LE(candidate.ips_variance, weight_cap * weight_cap)
        << candidate.spec;
    EXPECT_TRUE(std::isfinite(candidate.dr_mean)) << candidate.spec;
    EXPECT_TRUE(std::isfinite(candidate.snips)) << candidate.spec;
  }
}

/// Cross-check against ground truth: run the candidate on-policy at the
/// same seeds (same per-decision reward streams) and compare with its
/// replay estimate off the logging policy's traffic. `random` is
/// state-free, so the only gap is importance-weighting noise — the
/// estimate must land within a few of its own standard errors.
TEST(ReplayPanel, CandidateMatchesOnPolicyRunAtMatchedSeeds) {
  TempDir tmp;
  ServeSetup setup;
  setup.arms = 12;
  setup.edge_prob = 0.4;
  setup.epsilon = 0.3;
  setup.horizon = 20000;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const double on_policy_mean = drive_engine(setup, "random", "");

  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const replay::PanelResult panel =
      replay::replay_panel(make_graph(setup), scan, {"random"}, options);

  const replay::CandidateSummary& candidate = panel.candidates.at(0);
  EXPECT_NEAR(candidate.ips_mean, on_policy_mean,
              5.0 * candidate.ips_se + 1e-3);
  EXPECT_NEAR(candidate.dr_mean, on_policy_mean,
              5.0 * candidate.dr_se + 1e-3);
  EXPECT_NEAR(candidate.snips, on_policy_mean, 0.1);
}

TEST(ReplayPanel, RepeatedReplayIsBitIdentical) {
  TempDir tmp;
  ServeSetup setup;
  setup.horizon = 1500;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const serve::EventLogScan scan = serve::read_event_log(path);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  const std::vector<std::string> specs{setup.policy_spec, "ucb1", "thompson"};

  const replay::PanelResult a =
      replay::replay_panel(make_graph(setup), scan, specs, options);
  const replay::PanelResult b =
      replay::replay_panel(make_graph(setup), scan, specs, options);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const replay::CandidateSummary& x = a.candidates[i];
    const replay::CandidateSummary& y = b.candidates[i];
    EXPECT_EQ(x.ips_mean, y.ips_mean) << x.spec;
    EXPECT_EQ(x.ips_variance, y.ips_variance) << x.spec;
    EXPECT_EQ(x.snips, y.snips) << x.spec;
    EXPECT_EQ(x.dr_mean, y.dr_mean) << x.spec;
    EXPECT_EQ(x.ess, y.ess) << x.spec;
    EXPECT_EQ(x.matched, y.matched) << x.spec;
    // Down to the rendered panel bytes.
    exp::ReplayRecord rx, ry;
    rx.policy = x.spec;
    rx.ips_mean = x.ips_mean;
    rx.dr_mean = x.dr_mean;
    ry.policy = y.spec;
    ry.ips_mean = y.ips_mean;
    ry.dr_mean = y.dr_mean;
    EXPECT_EQ(exp::render_replay_json(rx), exp::render_replay_json(ry));
  }
}

TEST(ReplayPanel, RejectsBadInputsUpFront) {
  TempDir tmp;
  ServeSetup setup;
  setup.horizon = 50;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const serve::EventLogScan scan = serve::read_event_log(path);
  const Graph graph = make_graph(setup);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;

  EXPECT_THROW((void)replay::replay_panel(graph, scan, {"no-such-policy"},
                                          options),
               std::invalid_argument);
  replay::ReplayOptions bad_eps = options;
  bad_eps.epsilon = 1.5;
  EXPECT_THROW((void)replay::replay_panel(graph, scan, {"ucb1"}, bad_eps),
               std::invalid_argument);
  // A graph smaller than the logged action range is a flag mismatch.
  ExperimentConfig tiny;
  tiny.graph_family = GraphFamily::kComplete;
  tiny.num_arms = 2;
  EXPECT_THROW((void)replay::replay_panel(build_graph(tiny), scan, {"ucb1"},
                                          options),
               std::invalid_argument);
}

/// A spawning transport that fails the test if a worker is ever asked for.
class NoWorkerTransport final : public net::StreamTransport {
 public:
  [[nodiscard]] bool can_spawn() const noexcept override { return true; }
  [[nodiscard]] net::Peer spawn_peer() override {
    ADD_FAILURE() << "run_distributed_panel started a worker";
    throw std::runtime_error("spawn_peer called");
  }
  void release_peer(net::Peer&) override {}
  [[nodiscard]] std::string describe() const override { return "no workers"; }
};

TEST(ReplayDispatch, RejectsBadInputsBeforeAnyWorker) {
  TempDir tmp;
  ServeSetup setup;
  setup.horizon = 50;
  const std::string path = tmp.file("serve.ncbl");
  (void)drive_engine(setup, setup.policy_spec, path);
  const serve::EventLogScan scan = serve::read_event_log(path);
  ExperimentConfig config;
  config.num_arms = setup.arms;
  config.edge_probability = setup.edge_prob;
  config.seed = setup.seed;
  const Graph graph = build_graph(config);
  replay::ReplayOptions options;
  options.epsilon = setup.epsilon;
  options.seed = setup.seed;
  NoWorkerTransport transport;
  replay::ReplayDispatchOptions dispatch;
  dispatch.transport = &transport;
  dispatch.graph_config = &config;

  EXPECT_THROW((void)replay::run_distributed_panel(
                   graph, scan, {"ucb1", "no-such-policy"}, options, dispatch),
               std::invalid_argument);
  replay::ReplayOptions bad_eps = options;
  bad_eps.epsilon = 1.5;
  EXPECT_THROW((void)replay::run_distributed_panel(graph, scan, {"ucb1"},
                                                   bad_eps, dispatch),
               std::invalid_argument);
}

TEST(ReplayEmitters, PanelDocumentShapeAndDeterminism) {
  exp::ReplayRecord record;
  record.policy = "ucb1";
  record.description = "UCB1(c=2)";
  record.epsilon = 0.1;
  record.seed = 7;
  record.decisions = 100;
  record.events = 90;
  record.matched = 12;
  record.ips_mean = 0.5;
  record.ips_se = 0.01;
  record.snips = 0.49;
  record.dr_mean = 0.51;
  record.dr_se = 0.008;
  record.ess = 42.5;
  record.max_weight = 9.5;
  const std::string line = exp::render_replay_json(record);
  EXPECT_NE(line.find("\"policy\":\"ucb1\""), std::string::npos);
  EXPECT_NE(line.find("\"ips_mean\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"ess\":42.5"), std::string::npos);
  EXPECT_NE(line.find("\"logging\":false"), std::string::npos);

  exp::ReplayPanelMeta meta;
  meta.log_path = "build/serve.ncbl";
  meta.decisions = 100;
  meta.feedbacks = 95;
  meta.joined = 90;
  meta.arms = 30;
  meta.graph = "er";
  meta.min_propensity = 0.00666;
  meta.empirical_mean = 0.5;
  const std::string doc = exp::render_replay_panel_json(meta, {line, line});
  EXPECT_NE(doc.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"engine\": \"ncb_replay\""), std::string::npos);
  EXPECT_NE(doc.find("\"policies\": [\n"), std::string::npos);
  EXPECT_EQ(doc, exp::render_replay_panel_json(meta, {line, line}));
}

// A ReplayInit written field by field, as a coordinator would send it, for
// a 4-arm graph and an event stream of `chunks` chunks, `total_records`
// records in all.
std::string hand_written_replay_init(std::uint32_t chunks,
                                     std::uint64_t total_records) {
  wire::WireWriter init;
  init.put_double(0.1);                   // epsilon
  init.put_u64(7);                        // seed
  init.put_u64(0);                        // horizon
  init.put_string(exp::family_token(GraphFamily::kErdosRenyi));
  init.put_u64(4);                        // arms
  init.put_double(0.5);                   // edge probability
  init.put_u64(0);                        // family parameter
  init.put_u64(7);                        // graph seed
  init.put_double(0.5);                   // model arm average
  init.put_u64(0);                        // arm model entries
  init.put_u32(chunks);
  init.put_u64(total_records);
  return init.take();
}

struct WorkerOutcome {
  std::optional<wire::Frame> reply;
  int exit_code = -1;
};

// Plays the coordinator against an in-process replay worker: admits it,
// sends `frames`, and returns the worker's first reply and its exit code.
WorkerOutcome run_fake_coordinator(const std::vector<wire::Frame>& frames) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  WorkerOutcome outcome;
  std::thread worker([&] {
    replay::ReplayWorkerOptions options;
    options.fd = sv[1];
    outcome.exit_code = replay::run_replay_worker(options);
    ::close(sv[1]);
  });

  const auto hello = wire::read_frame(sv[0]);
  const auto info = wire::read_frame(sv[0]);
  EXPECT_TRUE(hello && hello->type == wire::MsgType::kHello);
  EXPECT_TRUE(info && info->type == wire::MsgType::kWorkerInfo);
  wire::write_frame(sv[0], wire::MsgType::kHelloAck,
                    wire::encode_hello_ack());
  for (const wire::Frame& frame : frames) {
    wire::write_frame(sv[0], frame.type, frame.payload);
  }

  outcome.reply = wire::read_frame(sv[0]);
  ::close(sv[0]);
  worker.join();
  return outcome;
}

std::string worker_error_message(const WorkerOutcome& outcome) {
  EXPECT_TRUE(outcome.reply.has_value());
  if (!outcome.reply) return "";
  EXPECT_EQ(outcome.reply->type, wire::MsgType::kWorkerError);
  return wire::decode_worker_error(outcome.reply->payload).message;
}

TEST(ReplayWorker, RejectsAnAnnouncedStreamItsChunksCannotCarry) {
  // 2^40 records announced in a single chunk.
  const WorkerOutcome outcome = run_fake_coordinator(
      {{wire::MsgType::kReplayInit,
        hand_written_replay_init(1, std::uint64_t{1} << 40)}});
  const std::string message = worker_error_message(outcome);
  EXPECT_NE(message.find("cannot fit"), std::string::npos) << message;
  EXPECT_EQ(outcome.exit_code, 1);
}

TEST(ReplayWorker, RejectsAChunkWhoseLastRecordIsCutShort) {
  // A ReplayEvents chunk is a slice of an event log: two records as the
  // log file stores them, the second missing its final byte. The file
  // reader would keep the first and call the second a torn tail; the
  // worker must refuse the chunk.
  std::string records;
  serve::append_event_record(
      records, {serve::EventType::kDecision, 1, "u1", 2, 0.5, 0.0});
  serve::append_event_record(
      records, {serve::EventType::kFeedback, 1, "", kNoArm, 0.0, 1.0});
  records.pop_back();
  wire::WireWriter chunk;
  chunk.put_u32(0);  // chunk index
  chunk.put_u32(2);  // records
  const std::string events = chunk.take() + records;

  const WorkerOutcome outcome =
      run_fake_coordinator({{wire::MsgType::kReplayInit,
                             hand_written_replay_init(1, 2)},
                            {wire::MsgType::kReplayEvents, events}});
  const std::string message = worker_error_message(outcome);
  EXPECT_NE(message.find("torn"), std::string::npos) << message;
  EXPECT_EQ(outcome.exit_code, 1);
}

}  // namespace
}  // namespace ncb
