// Streaming aggregates over a job's replications, the one reduction behind
// every regret curve and ±ci95 the repo reports. A replication's regret
// curves are sampled at a grid the moment the run finishes, then the run is
// dropped. The one replication fold (exp::run_replications) feeds samples
// to Welford accumulators strictly in global replication order, so an
// aggregate is bit-identical for any thread count, any shard size, and
// either grid user: the sweep's checkpoint grid or run_sharded_*'s dense
// grid 1..n.
#pragma once

#include <vector>

#include "sim/runner.hpp"
#include "util/running_stat.hpp"

namespace ncb::exp {

/// Log-spaced time checkpoints in [1, horizon]: `count` geometrically spaced
/// slots (deduplicated, strictly increasing, always ending at `horizon`).
/// `count == 0` (or count >= horizon) yields the dense grid 1..horizon.
[[nodiscard]] std::vector<TimeSlot> checkpoint_grid(TimeSlot horizon,
                                                    std::size_t count);

/// One replication's regret curves compressed onto a grid.
struct RepSample {
  std::vector<double> per_slot;    ///< Realized per-slot regret at grid[i].
  std::vector<double> cumulative;  ///< Accumulated regret at grid[i].
  std::vector<double> pseudo;      ///< Per-slot pseudo-regret at grid[i].
  double final_cumulative = 0.0;   ///< Accumulated regret at the horizon.
  double optimal_per_slot = 0.0;   ///< The run's μ*, u*, λ* or σ*.
};

/// Samples a finished run at the grid slots. The run must have recorded its
/// series (RunnerOptions.record_series) over a horizon >= grid.back().
[[nodiscard]] RepSample sample_run(const RunResult& run,
                                   const std::vector<TimeSlot>& grid);

/// Welford mean/variance of the regret curves at the grid, plus the
/// final-cumulative scalar distribution. add_rep() must be called in global
/// replication order for bit-reproducible output.
class JobAggregate {
 public:
  JobAggregate() = default;
  explicit JobAggregate(std::vector<TimeSlot> grid)
      : grid_(std::move(grid)),
        per_slot_(grid_.size()),
        cumulative_(grid_.size()),
        pseudo_(grid_.size()) {}

  void add_rep(const RepSample& sample);

  [[nodiscard]] const std::vector<TimeSlot>& grid() const noexcept {
    return grid_;
  }
  /// Realized per-slot regret (the sweep JSON's "expected_*" arrays).
  [[nodiscard]] const SeriesStat& per_slot_regret() const noexcept {
    return per_slot_;
  }
  [[nodiscard]] const SeriesStat& cumulative_regret() const noexcept {
    return cumulative_;
  }
  /// Per-slot pseudo-regret: opt mean − chosen action's mean. The emitters
  /// do not print it; the figures plot its means as expected regret.
  [[nodiscard]] const SeriesStat& per_slot_pseudo_regret() const noexcept {
    return pseudo_;
  }
  [[nodiscard]] const RunningStat& final_cumulative() const noexcept {
    return final_;
  }
  [[nodiscard]] std::size_t replications() const noexcept {
    return final_.count();
  }
  [[nodiscard]] double optimal_per_slot() const noexcept {
    return optimal_per_slot_;
  }

 private:
  std::vector<TimeSlot> grid_;
  SeriesStat per_slot_;
  SeriesStat cumulative_;
  SeriesStat pseudo_;
  RunningStat final_;
  double optimal_per_slot_ = 0.0;
};

}  // namespace ncb::exp
