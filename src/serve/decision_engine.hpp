// The online decision engine: a registry-constructed policy + relation
// graph behind a thread-safe decide()/report() API.
//
// This is the explorer/recorder split of the MWT Decision Service
// (Agarwal et al.): decide() runs the learned policy, mixes in
// epsilon-greedy exploration, and returns the chosen action *with its
// propensity* — the probability the logging policy assigned to that action
// — so the event log supports counterfactual evaluation of other policies
// later. report() joins a reward back to its decision and feeds the policy
// online.
//
// Determinism contract: the exploration randomness for a user key's i-th
// request is drawn from a stream seeded with derive_seed_at(seed ⊕
// hash(key), i) — a per-key counter-based stream, never a shared RNG and
// never per-connection state. Decisions therefore depend only on the
// engine seed and the global order of decide()/report() calls (which
// drives the policy's learned state), not on which connection carried a
// request or how many clients are attached. Replaying the same request
// stream in the same order is bit-identical, however it is multiplexed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/policy.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "serve/event_log.hpp"
#include "util/types.hpp"

namespace ncb::serve {

/// FNV-1a over a user key: stable across runs and platforms (unlike
/// std::hash). Both the live engine and the offline replayer seed a key's
/// exploration stream with derive_seed_at(seed ^ fnv1a_key(key), i), so the
/// hash is part of the determinism contract.
[[nodiscard]] std::uint64_t fnv1a_key(const std::string& key) noexcept;

struct EngineOptions {
  /// Policy registry spec, e.g. "dfl-sso" or "eps-greedy:eps=0.05".
  std::string policy_spec = "dfl-sso";
  /// Epsilon-greedy exploration mixed over the policy's choice: with
  /// probability epsilon the served action is uniform over all K arms.
  /// 0 disables exploration (propensity 1 on every decision).
  double epsilon = 0.05;
  /// Master seed: the policy's private stream and every per-key
  /// exploration stream derive from it.
  std::uint64_t seed = 20170605;
  /// Horizon hint forwarded to the policy builder (0 = anytime).
  TimeSlot horizon = 0;
  /// Registry mirroring the engine counters (serve.engine.*); nullptr →
  /// obs::MetricsRegistry::global(). Observability only — never feeds back
  /// into a decision.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One answered decision request.
struct Decision {
  std::uint64_t decision_id = 0;  ///< Join key for report(); also the slot.
  std::uint64_t slot = 0;         ///< Echo of the caller's slot tag.
  ArmId action = kNoArm;
  double propensity = 0.0;
};

class DecisionEngine {
 public:
  /// Builds the policy from the registry and resets it over `graph`.
  /// `log` may be null (serving without an event log); when set, every
  /// decide/report appends a record under the engine lock, so log order
  /// equals decision order. Throws std::invalid_argument on an unknown
  /// policy spec, an empty graph, or epsilon outside [0, 1].
  DecisionEngine(Graph graph, const EngineOptions& options,
                 EventLog* log = nullptr);

  /// Answers one request: runs the policy at the next time slot, applies
  /// the per-key exploration draw, logs and remembers the decision.
  [[nodiscard]] Decision decide(const std::string& user_key,
                                std::uint64_t slot = 0);

  /// Joins a reward to a decision and feeds the policy online. Returns
  /// false (and changes nothing) for an unknown or already-reported
  /// decision_id, and for a NaN or infinite reward — which is counted in
  /// serve.engine.nonfinite_rewards only, neither observed nor logged.
  bool report(std::uint64_t decision_id, double reward);

  [[nodiscard]] std::size_t num_arms() const noexcept;
  /// One-line summary for server startup logs.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] std::uint64_t decisions() const;
  [[nodiscard]] std::uint64_t feedbacks() const;
  /// report() calls naming a decision_id that was never issued.
  [[nodiscard]] std::uint64_t unknown_feedbacks() const;
  /// report() calls naming a decision that already received its reward —
  /// the join-health signal a lossy or retrying feedback path produces.
  [[nodiscard]] std::uint64_t duplicate_feedbacks() const;
  /// Decisions awaiting feedback.
  [[nodiscard]] std::size_t pending() const;

 private:
  Graph graph_;
  std::unique_ptr<SinglePlayPolicy> policy_;
  double epsilon_;
  std::uint64_t seed_;
  EventLog* log_;
  std::string policy_description_;

  mutable std::mutex mutex_;
  TimeSlot t_ = 0;  ///< Last issued slot == last decision_id.
  std::unordered_map<std::uint64_t, ArmId> pending_;
  std::unordered_map<std::uint64_t, std::uint64_t> per_key_count_;
  std::uint64_t feedbacks_ = 0;
  std::uint64_t unknown_feedbacks_ = 0;
  std::uint64_t duplicate_feedbacks_ = 0;

  // Registry mirrors of the counters above, plus m_nonfinite_, which has
  // no plain twin (references resolved once in the constructor; increments
  // are relaxed atomics on the hot path).
  obs::Counter& m_decisions_;
  obs::Counter& m_feedbacks_;
  obs::Counter& m_unknown_;
  obs::Counter& m_duplicates_;
  obs::Counter& m_nonfinite_;
};

}  // namespace ncb::serve
