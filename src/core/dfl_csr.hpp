// DFL-CSR — Algorithm 4: distribution-free learning for combinatorial play
// with side reward.
//
// Rather than learning exponentially many com-arm side rewards directly, the
// policy learns per-arm direct rewards and selects the com-arm maximizing
//   Σ_{i∈Y_x} ( X̄_i + sqrt( max(ln(t^{2/3}/(K·O_i)), 0) / O_i ) )
// through a combinatorial oracle (§VI assumes the per-slot optimization can
// be solved optimally; a lazy-greedy oracle provides the scalable
// (1−1/e)-approximate alternative for the A4 ablation).
//
// Theorem 4: R(n) ≤ NK + (sqrt(eK) + 8(1+N)N³)·n^{2/3}
//                    + (1 + 4·sqrt(K)·N²/e)·N²K·n^{5/6}.
#pragma once

#include <memory>
#include <vector>

#include "core/arm_stats.hpp"
#include "core/policy.hpp"
#include "strategy/feasible_set.hpp"
#include "strategy/oracle.hpp"

namespace ncb {

struct DflCsrOptions {
  /// Score assigned to a never-observed arm so the oracle prioritizes
  /// strategies that cover it (a finite stand-in for +inf).
  double unobserved_score = 1e6;
};

class DflCsr final : public CombinatorialPolicy {
 public:
  /// `oracle` defaults to exact enumeration when null.
  DflCsr(std::shared_ptr<const FeasibleSet> family,
         std::shared_ptr<const CoverageOracle> oracle = nullptr,
         DflCsrOptions options = {});

  void reset() override;
  [[nodiscard]] StrategyId select(TimeSlot t) override;
  void observe(StrategyId played, TimeSlot t,
               ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const FeasibleSet& family() const noexcept { return *family_; }
  [[nodiscard]] std::int64_t observation_count(ArmId i) const {
    return stats_.count(i);
  }
  [[nodiscard]] double empirical_mean(ArmId i) const {
    return stats_.mean(i);
  }
  /// Per-arm index score w_i(t) fed to the coverage oracle.
  [[nodiscard]] double arm_score(ArmId i, TimeSlot t) const;

 private:
  std::shared_ptr<const FeasibleSet> family_;
  std::shared_ptr<const CoverageOracle> oracle_;
  DflCsrOptions options_;
  ArmStatsTable stats_;
  std::vector<double> scores_;  // scratch
};

}  // namespace ncb
