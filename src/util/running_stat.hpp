// Online statistics (Welford) and fixed-checkpoint time-series aggregation.
#pragma once

#include <cstddef>
#include <vector>

namespace ncb {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double stderr_mean() const noexcept;
  /// Half-width of the ~95% normal confidence interval for the mean.
  [[nodiscard]] double ci95_halfwidth() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Raw Welford second-moment sum — with count/mean/min/max, the complete
  /// internal state (what restore() accepts back).
  [[nodiscard]] double m2() const noexcept { return m2_; }

  /// Merges another accumulator into this one (parallel reduction). Merging
  /// into an empty accumulator is a bitwise copy of `other`, which is what
  /// lets a distributed reduction ship Welford state over the wire and
  /// reassemble it exactly.
  void merge(const RunningStat& other) noexcept;

  /// Rebuilds an accumulator from its exact internal state — the inverse of
  /// the count()/mean()/m2()/min()/max() accessors, for wire transport.
  [[nodiscard]] static RunningStat restore(std::size_t count, double mean,
                                           double m2, double min,
                                           double max) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A vector of RunningStat, one per time checkpoint. Each replication adds
/// its series; the aggregate exposes mean/σ per checkpoint.
class SeriesStat {
 public:
  SeriesStat() = default;
  explicit SeriesStat(std::size_t length) : stats_(length) {}

  /// Adds one replication's series; its length must match.
  void add_series(const std::vector<double>& series);

  [[nodiscard]] std::size_t length() const noexcept { return stats_.size(); }
  [[nodiscard]] const RunningStat& at(std::size_t i) const {
    return stats_.at(i);
  }
  [[nodiscard]] std::vector<double> means() const;
  [[nodiscard]] std::vector<double> stddevs() const;

 private:
  std::vector<RunningStat> stats_;
};

}  // namespace ncb
