#include "replay/replay.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/policy_registry.hpp"
#include "obs/metrics.hpp"
#include "serve/decision_engine.hpp"
#include "util/rng.hpp"

namespace ncb::replay {

namespace {

/// One candidate policy wrapped in serve::DecisionEngine's decide()/report()
/// semantics, minus the lock, the log, and the pending-id bookkeeping the
/// reactor needs. The replay determinism contract lives here: every line
/// that touches the policy clock, the exploration stream, or observe()
/// mirrors DecisionEngine exactly, so replaying the logging policy's spec
/// at the serving seed reproduces the served actions — and the logged
/// propensities — bit for bit.
class CandidateReplayer {
 public:
  CandidateReplayer(const Graph& graph, const std::string& spec,
                    const ReplayOptions& options)
      : num_arms_(graph.num_vertices()),
        epsilon_(options.epsilon),
        seed_(options.seed) {
    policy_ = PolicyRegistry::instance().make_single_play(
        spec, options.horizon, options.seed);
    policy_->reset(graph);
    description_ = policy_->describe();
  }

  struct Step {
    ArmId greedy = kNoArm;
    ArmId sampled = kNoArm;  ///< greedy + the per-key exploration draw.
    double q = 0.0;          ///< Candidate probability of the logged action.
  };

  /// Replays one decision record: advances the policy clock, runs select,
  /// draws the key's exploration stream, and prices the logged action.
  Step on_decision(const serve::EventRecord& record) {
    const std::uint64_t key_hash = serve::fnv1a_key(record.key);
    const TimeSlot t = ++t_;
    const ArmId greedy = policy_->select(t);

    const std::uint64_t key_index = per_key_count_.next(key_hash);
    ArmId sampled = greedy;
    if (epsilon_ > 0.0) {
      Xoshiro256 rng(derive_seed_at(seed_ ^ key_hash, key_index));
      if (rng.uniform() < epsilon_) {
        sampled = static_cast<ArmId>(rng.uniform_int(num_arms_));
      }
    }
    // Same expression the engine logs as propensity, evaluated at the
    // logged action: eps/K mass everywhere, plus (1-eps) on the greedy arm.
    double q = epsilon_ / static_cast<double>(num_arms_);
    if (record.action == greedy) q += 1.0 - epsilon_;

    pending_.emplace(record.decision_id,
                     Pending{record.action, greedy, q, sampled});
    return {greedy, sampled, q};
  }

  struct Joined {
    ArmId action = kNoArm;  ///< Logged action.
    ArmId greedy = kNoArm;  ///< Candidate greedy at decision time.
    double q = 0.0;
    bool matched = false;   ///< Sampled action == logged action.
  };

  /// Replays one feedback record. Feeds the *logged* action's reward to the
  /// policy at the current clock — exactly what DecisionEngine::report does
  /// online (the served action is the only one with a known reward).
  /// Returns false for an unknown or already-joined decision_id.
  bool on_feedback(const serve::EventRecord& record, Joined& out) {
    const auto it = pending_.find(record.decision_id);
    if (it == pending_.end()) return false;
    const Pending pending = it->second;
    pending_.erase(it);
    policy_->observe(pending.action, t_, {{pending.action, record.reward}});
    out.action = pending.action;
    out.greedy = pending.greedy;
    out.q = pending.q;
    out.matched = pending.sampled == pending.action;
    return true;
  }

  [[nodiscard]] const std::string& description() const noexcept {
    return description_;
  }

 private:
  struct Pending {
    ArmId action = kNoArm;
    ArmId greedy = kNoArm;
    double q = 0.0;
    ArmId sampled = kNoArm;
  };

  std::size_t num_arms_;
  double epsilon_;
  std::uint64_t seed_;
  std::unique_ptr<SinglePlayPolicy> policy_;
  std::string description_;
  TimeSlot t_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
  serve::KeyCounters per_key_count_;
};

}  // namespace

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

  // The log's own reward statistics, accumulated over joined feedbacks in
  // stream order — the exact sequence every candidate's IPS accumulator
  // sees, so the logging-policy identity holds bitwise. The open-set
  // membership test mirrors the keep-first emplace/erase the candidate
  // pass performs, so "joined" means the same events here and there.
  RunningStat empirical;
  std::unordered_set<std::uint64_t> open;
  for (const serve::EventRecord& record : scan.records) {
    if (record.type == serve::EventType::kDecision) {
      open.insert(record.decision_id);
    } else if (open.erase(record.decision_id) != 0) {
      empirical.add(record.reward);
    }
  }
  result.empirical_mean = empirical.mean();
  result.empirical_variance = empirical.variance();
  result.empirical_se = empirical.stderr_mean();
  return result;
}

CandidateSummary score_candidate(const Graph& graph,
                                 const std::vector<serve::EventRecord>& records,
                                 const std::string& spec,
                                 const ReplayOptions& options,
                                 const std::vector<double>& arm_model,
                                 double model_arm_average) {
  CandidateReplayer replayer(graph, spec, options);
  EstimatorAccumulator accumulator;
  CandidateSummary summary;
  summary.spec = spec;
  summary.description = replayer.description();

  /// Direct term E_q[m] at decision time, keyed by decision_id.
  std::unordered_map<std::uint64_t, double> direct;
  /// Logged propensity of each not-yet-joined decision.
  std::unordered_map<std::uint64_t, double> logged_propensity;

  const double uniform_direct = options.epsilon * model_arm_average;
  for (const serve::EventRecord& record : records) {
    if (record.type == serve::EventType::kDecision) {
      logged_propensity.emplace(record.decision_id, record.propensity);
      const CandidateReplayer::Step step = replayer.on_decision(record);
      ++summary.decisions;
      direct.emplace(record.decision_id,
                     uniform_direct + (1.0 - options.epsilon) *
                                          arm_model[static_cast<std::size_t>(
                                              step.greedy)]);
    } else {
      const auto propensity_it = logged_propensity.find(record.decision_id);
      if (propensity_it == logged_propensity.end()) {
        continue;  // orphan or duplicate feedback — counted in pass 1
      }
      const double propensity = propensity_it->second;
      logged_propensity.erase(propensity_it);
      CandidateReplayer::Joined joined;
      if (!replayer.on_feedback(record, joined)) continue;
      const auto direct_it = direct.find(record.decision_id);
      const double direct_term = direct_it->second;
      direct.erase(direct_it);
      const double weight = joined.q / propensity;
      accumulator.add(
          weight, record.reward, direct_term,
          arm_model[static_cast<std::size_t>(joined.action)]);
      if (joined.matched) ++summary.matched;
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

PanelResult replay_panel(const Graph& graph, const serve::EventLogScan& scan,
                         const std::vector<std::string>& specs,
                         const ReplayOptions& options) {
  if (!(options.epsilon >= 0.0 && options.epsilon <= 1.0)) {
    throw std::invalid_argument("replay: epsilon must be in [0, 1]");
  }
  // Reject every bad spec before touching the (possibly huge) log.
  for (const std::string& spec : specs) {
    PolicyRegistry::instance().check_single_play(spec);
  }

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
