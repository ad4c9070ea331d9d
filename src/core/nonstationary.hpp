// Non-stationary extensions of DFL-SSO (beyond the paper; its §IX notes
// practical refinements as future work). Two standard remedies when arm
// means drift or jump:
//
//  * SwDflSso — sliding window: statistics over the last `window` slots
//    only (Garivier & Moulines' SW-UCB adapted to the DFL index and side
//    observations).
//  * DiscountedDflSso — exponential forgetting: counts and sums decay by
//    `discount` each slot, so stale side observations fade out.
//
// Both keep Algorithm 1's index shape X̄ + sqrt(log⁺(t/(K·O))/O) with the
// windowed/discounted O and X̄. The nonstationary bench shows plain
// DFL-SSO locking onto a stale optimum after a breakpoint while these
// variants recover.
#pragma once

#include <deque>
#include <vector>

#include "core/index_policy.hpp"

namespace ncb {

struct SwDflSsoOptions {
  TimeSlot window = 1000;  ///< Number of most recent slots retained.
  std::uint64_t seed = 0x5eed5a11;
};

class SwDflSso final : public SingleIndexPolicy {
 public:
  explicit SwDflSso(SwDflSsoOptions options = {});

  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;

  /// Windowed observation count of arm i.
  [[nodiscard]] std::int64_t window_count(ArmId i) const {
    return counts_.at(static_cast<std::size_t>(i));
  }
  /// Windowed empirical mean (0 when the window holds no samples).
  [[nodiscard]] double window_mean(ArmId i) const;
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;

 protected:
  void on_reset(const Graph& graph) override;
  void before_select(TimeSlot t) override;
  [[nodiscard]] IndexRefreshMode refresh_mode() const override {
    return IndexRefreshMode::kIncremental;
  }
  [[nodiscard]] IndexRefresh refresh_index(ArmId i, TimeSlot t) const override;

 private:
  void evict_older_than(TimeSlot cutoff);

  struct Sample {
    TimeSlot slot;
    ArmId arm;
    double value;
  };

  SwDflSsoOptions options_;
  std::deque<Sample> samples_;       // chronological
  std::vector<std::int64_t> counts_;  // per-arm samples inside the window
  std::vector<double> sums_;          // per-arm value sums inside the window
};

struct DiscountedDflSsoOptions {
  double discount = 0.999;  ///< Per-slot decay γ ∈ (0, 1].
  std::uint64_t seed = 0x5eedd15c;
};

class DiscountedDflSso final : public SingleIndexPolicy {
 public:
  explicit DiscountedDflSso(DiscountedDflSsoOptions options = {});

  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;

  /// Discounted observation count (a real number).
  [[nodiscard]] double discounted_count(ArmId i) const {
    return counts_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] double discounted_mean(ArmId i) const;
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;

 protected:
  void on_reset(const Graph& graph) override;
  /// Decay touches every arm every slot, so the index stays on the
  /// every-round path; the effective horizon min(t, 1/(1-γ)) is hoisted.
  /// No bound (+inf): every index is evaluated.
  double refresh_indices(TimeSlot t, TimeSlot horizon, std::size_t first,
                         std::size_t last, double* out) const override;

 private:
  DiscountedDflSsoOptions options_;
  std::vector<double> counts_;
  std::vector<double> sums_;
};

}  // namespace ncb
