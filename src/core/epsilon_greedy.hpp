// ε-greedy with optional 1/t decay (Auer et al.'s ε_t = min(1, cK/(d²t))).
// Sanity baseline; consumes side observations when `use_side_observations`.
#pragma once

#include <vector>

#include "core/arm_stats.hpp"
#include "core/policy.hpp"
#include "util/argmax.hpp"
#include "util/rng.hpp"

namespace ncb {

struct EpsilonGreedyOptions {
  double epsilon = 0.1;    ///< Exploration probability (fixed mode).
  bool decay = false;      ///< ε_t = min(1, c·K/(d²·t)) when true.
  double c = 5.0;          ///< Decay numerator constant.
  double d = 0.1;          ///< Decay gap parameter.
  bool use_side_observations = false;
  std::uint64_t seed = 0x5eede605;
};

class EpsilonGreedy final : public SinglePlayPolicy {
 public:
  explicit EpsilonGreedy(EpsilonGreedyOptions options = {});

  void reset(const Graph& graph) override;
  [[nodiscard]] ArmId select(TimeSlot t) override;
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] double epsilon_at(TimeSlot t) const;

  /// Mean groups the exploit step did not skip since the last reset().
  [[nodiscard]] std::uint64_t groups_evaluated() const noexcept {
    return exploit_.groups_evaluated();
  }

 private:
  EpsilonGreedyOptions options_;
  std::size_t num_arms_ = 0;
  ArmStatsTable stats_;
  Xoshiro256 rng_;
  /// First possibly-unvisited arm. Counts never decrease, so arms below the
  /// cursor stay visited forever and select()'s unvisited-first sweep is
  /// amortized O(K) over a run instead of O(K) per call.
  std::size_t unvisited_cursor_ = 0;
  /// Exploit argmax over stats_.means(): one cached maximum per group of
  /// kIndexGroupSize arms, renewed only for groups observe() touched, so
  /// a select at K = 10⁴ reads a few groups instead of every mean.
  GroupArgmax exploit_;
};

}  // namespace ncb
