// The stochastic environment: draws the i.i.d. reward row X_{·,t} once per
// time slot. Policies never see this object directly — the simulation runner
// mediates feedback per scenario semantics, so a policy can only learn what
// its scenario legitimately observes.
//
// Drawing the row is the per-slot cost every scenario pays for all K arms,
// whatever the policy reads. For an all-Bernoulli instance (every sweep,
// figure and build_instance instance: means drawn from uniform(0, 1)),
// advance() runs one branch-free row kernel: arm i pays one xoshiro draw,
// `hit = (x >> 11) < thr_i` against BanditInstance::bernoulli_thresholds(),
// and stores the bit pattern of 1.0 masked by hit, with the generator held
// in a local copy. That is exactly the draw and the value of
// BernoulliDist::sample's `uniform() < p`, so rows are bit-identical to the
// per-arm path. Any other instance (a p = 0 or p = 1 arm, which consumes no
// draw, or any non-Bernoulli arm, which draws its own way) keeps the
// per-arm loop over the virtual Distribution::sample.
#pragma once

#include <memory>
#include <vector>

#include "env/instance.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ncb {

class Environment {
 public:
  /// Takes the instance by value; the environment owns its RNG stream so
  /// replications with distinct seeds are independent.
  Environment(BanditInstance instance, std::uint64_t seed);

  /// Shares an immutable instance instead of copying it — replications of
  /// the same job differ only in their RNG stream, so the sweep engine
  /// reuses one generated graph/instance across all of them (and across
  /// jobs with identical instance coordinates). `instance` must be non-null.
  Environment(std::shared_ptr<const BanditInstance> instance,
              std::uint64_t seed);

  /// Advances to the next time slot and draws X_{i,t} for every arm, in
  /// arm order from the environment's stream (see the header comment for
  /// the Bernoulli row kernel). Returns the drawn row (valid until the
  /// next call).
  const std::vector<double>& advance();

  /// Current slot's reward row (last `advance()` result).
  [[nodiscard]] const std::vector<double>& rewards() const noexcept {
    return rewards_;
  }

  /// Number of completed `advance()` calls.
  [[nodiscard]] TimeSlot slots_drawn() const noexcept { return slot_; }

  [[nodiscard]] const BanditInstance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const Graph& graph() const noexcept {
    return instance_->graph();
  }
  [[nodiscard]] std::size_t num_arms() const noexcept {
    return instance_->num_arms();
  }

  /// Realized direct reward of a strategy at the current slot: Σ_{i∈s} X_i.
  [[nodiscard]] double strategy_reward(const ArmSet& strategy) const;

  /// Realized side reward of an arm: B_i = Σ_{j∈N_i} X_j.
  [[nodiscard]] double side_reward(ArmId arm) const;

  /// Realized combinatorial side reward: CB_x = Σ_{j∈Y_x} X_j.
  [[nodiscard]] double strategy_side_reward(const ArmSet& strategy) const;

 private:
  std::shared_ptr<const BanditInstance> instance_;
  Xoshiro256 rng_;
  std::vector<double> rewards_;
  TimeSlot slot_ = 0;
};

}  // namespace ncb
