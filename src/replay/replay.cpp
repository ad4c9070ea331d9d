#include "replay/replay.hpp"

#include <stdexcept>
#include <unordered_map>

#include "core/policy_registry.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"

namespace ncb::replay {

PanelResult panel_base(const Graph& graph, const serve::EventLogScan& scan) {
  const std::size_t num_arms = graph.num_vertices();
  if (num_arms == 0) {
    throw std::invalid_argument("replay: empty graph");
  }

  PanelResult result;
  result.decisions = scan.decisions;
  result.feedbacks = scan.feedbacks;
  result.truncated_tail = scan.truncated_tail;

  // Join, DR baseline model, and join diagnostics.
  const serve::EventLogJoin join = serve::join_event_log(scan);
  result.joined = join.joined;
  result.orphan_feedbacks = join.orphan_feedbacks;
  result.duplicate_feedbacks = join.duplicate_feedbacks;
  result.min_propensity = join.min_propensity;
  RewardModel model(num_arms);
  for (const serve::JoinedEvent& event : join.events) {
    if (static_cast<std::size_t>(event.action) >= num_arms) {
      throw std::invalid_argument(
          "replay: logged action " + std::to_string(event.action) +
          " is outside the graph's " + std::to_string(num_arms) +
          " arms — graph flags must match the serving run");
    }
    if (event.has_reward) model.observe(event.action, event.reward);
  }
  result.arm_model.reserve(num_arms);
  for (std::size_t arm = 0; arm < num_arms; ++arm) {
    result.arm_model.push_back(model.value(static_cast<ArmId>(arm)));
  }
  result.model_arm_average = model.arm_average();

  // The log's own reward statistics: the join accumulates its rewards in
  // feedback order, the exact sequence every candidate's IPS accumulator
  // sees, so the logging-policy identity holds bitwise.
  result.empirical_mean = join.rewards.mean();
  result.empirical_variance = join.rewards.variance();
  result.empirical_se = join.rewards.stderr_mean();
  return result;
}

CandidateSummary score_candidate(const Graph& graph,
                                 const std::vector<serve::EventRecord>& records,
                                 const std::string& spec,
                                 const ReplayOptions& options,
                                 const std::vector<double>& arm_model,
                                 double model_arm_average) {
  serve::Explorer explorer(graph, spec, options.epsilon, options.seed,
                           options.horizon);
  const std::size_t num_arms = explorer.num_arms();
  // A sharded worker takes every input off the wire: check them all here.
  if (arm_model.size() != num_arms) {
    throw std::invalid_argument(
        "replay: arm model has " + std::to_string(arm_model.size()) +
        " entries for a " + std::to_string(num_arms) + "-arm graph");
  }
  EstimatorAccumulator accumulator;
  CandidateSummary summary;
  summary.spec = spec;
  summary.description = explorer.description();

  /// A decision awaiting its feedback, priced when it was replayed.
  struct OpenDecision {
    double weight = 0.0;  ///< Candidate probability / logged propensity.
    double direct = 0.0;  ///< DR direct term E_q[m] at decision time.
    ArmId action = kNoArm;  ///< Logged action.
    bool matched = false;   ///< Candidate's sampled action == logged one.
  };
  // The open decisions under serve::join_event_log's rule: a decision
  // opens its id unless that id is already open; a feedback closes it.
  std::unordered_map<std::uint64_t, OpenDecision> open;

  for (const serve::EventRecord& record : records) {
    if (record.type == serve::EventType::kDecision) {
      if (static_cast<std::size_t>(record.action) >= num_arms) {
        throw std::invalid_argument(
            "replay: logged action " + std::to_string(record.action) +
            " is outside the graph's " + std::to_string(num_arms) + " arms");
      }
      if (!(record.propensity > 0.0)) {
        throw std::invalid_argument(
            "replay: decision " + std::to_string(record.decision_id) +
            " has non-positive propensity " +
            std::to_string(record.propensity));
      }
      const serve::Explorer::Step step =
          explorer.decide(serve::fnv1a_key(record.key));
      ++summary.decisions;
      OpenDecision decision;
      decision.weight = explorer.propensity(record.action, step.greedy) /
                        record.propensity;
      decision.direct =
          explorer.expected(arm_model, model_arm_average, step.greedy);
      decision.action = record.action;
      decision.matched = step.action == record.action;
      open.try_emplace(record.decision_id, decision);
    } else {
      const auto it = open.find(record.decision_id);
      if (it == open.end()) {
        continue;  // orphan or duplicate feedback — counted by the join
      }
      const OpenDecision decision = it->second;
      open.erase(it);
      // The logged action's reward at the current clock — exactly what
      // DecisionEngine::report feeds online.
      explorer.observe(decision.action, record.reward);
      accumulator.add(decision.weight, record.reward, decision.direct,
                      arm_model[static_cast<std::size_t>(decision.action)]);
      if (decision.matched) ++summary.matched;
    }
  }

  summary.ips_stat = accumulator.ips();
  summary.dr_stat = accumulator.dr();
  summary.weight_sum = accumulator.weight_sum();
  summary.weight_sq_sum = accumulator.weight_sq_sum();
  summary.weighted_reward_sum = accumulator.weighted_reward_sum();
  summary.max_weight = accumulator.max_weight();
  // Bulk-increment outside the replay loop: one registry touch per
  // candidate, not per record.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("replay.events.scored").inc(summary.ips_stat.count());
  registry.counter("replay.candidates.scored").inc();
  return summary;
}

void finalize_candidate(CandidateSummary& summary) {
  summary.events = summary.ips_stat.count();
  summary.ips_mean = summary.ips_stat.mean();
  summary.ips_variance = summary.ips_stat.variance();
  summary.ips_se = summary.ips_stat.stderr_mean();
  summary.dr_mean = summary.dr_stat.mean();
  summary.dr_variance = summary.dr_stat.variance();
  summary.dr_se = summary.dr_stat.stderr_mean();
  summary.snips = summary.weight_sum > 0.0
                      ? summary.weighted_reward_sum / summary.weight_sum
                      : 0.0;
  summary.ess = summary.weight_sq_sum > 0.0
                    ? summary.weight_sum * summary.weight_sum /
                          summary.weight_sq_sum
                    : 0.0;
}

void check_panel(const std::vector<std::string>& specs,
                 const ReplayOptions& options) {
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    throw std::invalid_argument("replay: epsilon must be in [0, 1]");
  }
  for (const std::string& spec : specs) {
    PolicyRegistry::instance().check_single_play(spec);
  }
}

PanelResult replay_panel(const Graph& graph, const serve::EventLogScan& scan,
                         const std::vector<std::string>& specs,
                         const ReplayOptions& options) {
  check_panel(specs, options);
  PanelResult result = panel_base(graph, scan);
  result.candidates.reserve(specs.size());
  for (const std::string& spec : specs) {
    CandidateSummary summary =
        score_candidate(graph, scan.records, spec, options, result.arm_model,
                        result.model_arm_average);
    finalize_candidate(summary);
    result.candidates.push_back(std::move(summary));
  }
  return result;
}

}  // namespace ncb::replay
