#include "serve/decision_engine.hpp"

#include <cmath>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/rng.hpp"

namespace ncb::serve {

std::uint64_t fnv1a_key(const std::string& key) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

obs::MetricsRegistry& engine_registry(const EngineOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

DecisionEngine::DecisionEngine(Graph graph, const EngineOptions& options,
                               EventLog* log)
    : graph_(std::move(graph)),
      epsilon_(options.epsilon),
      seed_(options.seed),
      log_(log),
      m_decisions_(engine_registry(options).counter("serve.engine.decisions")),
      m_feedbacks_(engine_registry(options).counter("serve.engine.feedbacks")),
      m_unknown_(
          engine_registry(options).counter("serve.engine.unknown_feedbacks")),
      m_duplicates_(engine_registry(options).counter(
          "serve.engine.duplicate_feedbacks")),
      m_nonfinite_(engine_registry(options).counter(
          "serve.engine.nonfinite_rewards")) {
  if (graph_.num_vertices() == 0) {
    throw std::invalid_argument("decision engine: empty graph");
  }
  if (!(epsilon_ >= 0.0 && epsilon_ <= 1.0)) {
    throw std::invalid_argument("decision engine: epsilon must be in [0, 1]");
  }
  policy_ = PolicyRegistry::instance().make_single_play(
      options.policy_spec, options.horizon, seed_);
  policy_->reset(graph_);
  policy_description_ = policy_->describe();
}

Decision DecisionEngine::decide(const std::string& user_key,
                                std::uint64_t slot) {
  const std::uint64_t key_hash = fnv1a_key(user_key);
  std::lock_guard<std::mutex> lock(mutex_);
  const TimeSlot t = ++t_;  // global decision order drives the policy clock
  const ArmId greedy = policy_->select(t);

  // The exploration draw comes from the key's own counter-based stream, so
  // it is independent of which connection carried the request.
  const std::uint64_t key_index = per_key_count_.next(key_hash);
  const std::size_t num_arms = graph_.num_vertices();
  ArmId action = greedy;
  if (epsilon_ > 0.0) {
    Xoshiro256 rng(derive_seed_at(seed_ ^ key_hash, key_index));
    if (rng.uniform() < epsilon_) {
      action = static_cast<ArmId>(rng.uniform_int(num_arms));
    }
  }
  // Epsilon-greedy logging propensity: every arm gets eps/K from the
  // uniform branch; the greedy arm additionally gets the (1-eps) mass.
  double propensity = epsilon_ / static_cast<double>(num_arms);
  if (action == greedy) propensity += 1.0 - epsilon_;

  Decision decision;
  decision.decision_id = static_cast<std::uint64_t>(t);
  decision.slot = slot;
  decision.action = action;
  decision.propensity = propensity;
  pending_.emplace(decision.decision_id, action);
  if (log_ != nullptr) {
    log_->append_decision(decision.decision_id, user_key, action, propensity);
  }
  m_decisions_.inc();
  return decision;
}

bool DecisionEngine::report(std::uint64_t decision_id, double reward) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A NaN or infinite reward would poison the arm's mean for the rest of
  // the run, and every replay of the log would inherit it. The decision
  // stays pending, so a later finite reward can still join it.
  if (!std::isfinite(reward)) {
    m_nonfinite_.inc();
    return false;
  }
  const auto it = pending_.find(decision_id);
  if (it == pending_.end()) {
    // Issued-but-not-pending means the reward already arrived: a duplicate.
    // An id outside [1, t_] was never issued at all.
    if (decision_id >= 1 && decision_id <= static_cast<std::uint64_t>(t_)) {
      ++duplicate_feedbacks_;
      m_duplicates_.inc();
    } else {
      ++unknown_feedbacks_;
      m_unknown_.inc();
    }
    return false;
  }
  const ArmId played = it->second;
  // Bandit feedback only: the service observes the reward of the served
  // action, never side observations — the relation graph still shapes the
  // policy's index, just without N_i sharing.
  policy_->observe(played, t_, {{played, reward}});
  pending_.erase(it);
  ++feedbacks_;
  m_feedbacks_.inc();
  if (log_ != nullptr) log_->append_feedback(decision_id, reward);
  return true;
}

std::size_t DecisionEngine::num_arms() const noexcept {
  return graph_.num_vertices();
}

std::string DecisionEngine::describe() const {
  return policy_description_ + ", eps=" + std::to_string(epsilon_) + ", K=" +
         std::to_string(graph_.num_vertices());
}

std::uint64_t DecisionEngine::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint64_t>(t_);
}

std::uint64_t DecisionEngine::feedbacks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return feedbacks_;
}

std::uint64_t DecisionEngine::unknown_feedbacks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unknown_feedbacks_;
}

std::uint64_t DecisionEngine::duplicate_feedbacks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return duplicate_feedbacks_;
}

std::size_t DecisionEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

}  // namespace ncb::serve
