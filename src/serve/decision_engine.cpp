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

Explorer::Explorer(const Graph& graph, const std::string& policy_spec,
                   double epsilon, std::uint64_t seed, TimeSlot horizon)
    : num_arms_(graph.num_vertices()), epsilon_(epsilon), seed_(seed) {
  if (num_arms_ == 0) {
    throw std::invalid_argument("explorer: empty graph");
  }
  if (!(epsilon_ >= 0.0 && epsilon_ <= 1.0)) {
    throw std::invalid_argument("explorer: epsilon must be in [0, 1]");
  }
  policy_ = PolicyRegistry::instance().make_single_play(policy_spec, horizon,
                                                        seed_);
  policy_->reset(graph);
  description_ = policy_->describe();
}

Explorer::Step Explorer::decide(std::uint64_t key_hash) {
  Step step;
  step.slot = ++t_;
  step.greedy = policy_->select(step.slot);
  // The exploration draw comes from the key's own counter-based stream, so
  // it is independent of which connection carried the request.
  const std::uint64_t key_index = per_key_count_.next(key_hash);
  step.action = step.greedy;
  if (epsilon_ > 0.0) {
    Xoshiro256 rng(derive_seed_at(seed_ ^ key_hash, key_index));
    if (rng.uniform() < epsilon_) {
      step.action = static_cast<ArmId>(rng.uniform_int(num_arms_));
    }
  }
  return step;
}

void Explorer::observe(ArmId arm, double reward) {
  policy_->observe(arm, t_, {{arm, reward}});
}

DecisionEngine::DecisionEngine(Graph graph, const EngineOptions& options,
                               EventLog* log)
    : graph_(std::move(graph)),
      log_(log),
      explorer_(graph_, options.policy_spec, options.epsilon, options.seed,
                options.horizon),
      m_decisions_(engine_registry(options).counter("serve.engine.decisions")),
      m_feedbacks_(engine_registry(options).counter("serve.engine.feedbacks")),
      m_unknown_(
          engine_registry(options).counter("serve.engine.unknown_feedbacks")),
      m_duplicates_(engine_registry(options).counter(
          "serve.engine.duplicate_feedbacks")),
      m_nonfinite_(engine_registry(options).counter(
          "serve.engine.nonfinite_rewards")) {}

Decision DecisionEngine::decide(const std::string& user_key,
                                std::uint64_t slot) {
  const std::uint64_t key_hash = fnv1a_key(user_key);
  std::lock_guard<std::mutex> lock(mutex_);
  const Explorer::Step step = explorer_.decide(key_hash);

  Decision decision;
  decision.decision_id = static_cast<std::uint64_t>(step.slot);
  decision.slot = slot;
  decision.action = step.action;
  decision.propensity = explorer_.propensity(step.action, step.greedy);
  pending_.emplace(decision.decision_id, decision.action);
  if (log_ != nullptr) {
    log_->append_decision(decision.decision_id, user_key, decision.action,
                          decision.propensity);
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
    // An id outside [1, clock] was never issued at all.
    if (decision_id >= 1 &&
        decision_id <= static_cast<std::uint64_t>(explorer_.clock())) {
      ++duplicate_feedbacks_;
      m_duplicates_.inc();
    } else {
      ++unknown_feedbacks_;
      m_unknown_.inc();
    }
    return false;
  }
  explorer_.observe(it->second, reward);
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
  return explorer_.description() + ", eps=" +
         std::to_string(explorer_.epsilon()) + ", K=" +
         std::to_string(graph_.num_vertices());
}

std::uint64_t DecisionEngine::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint64_t>(explorer_.clock());
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
