#include "util/running_stat.hpp"

#include <cmath>
#include <stdexcept>

namespace ncb {

void RunningStat::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::stderr_mean() const noexcept {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStat::ci95_halfwidth() const noexcept {
  return 1.96 * stderr_mean();
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

RunningStat RunningStat::restore(std::size_t count, double mean, double m2,
                                 double min, double max) noexcept {
  RunningStat stat;
  stat.count_ = count;
  stat.mean_ = mean;
  stat.m2_ = m2;
  stat.min_ = min;
  stat.max_ = max;
  return stat;
}

void SeriesStat::add_series(const std::vector<double>& series) {
  if (stats_.empty()) stats_.resize(series.size());
  if (series.size() != stats_.size()) {
    throw std::invalid_argument("SeriesStat: series length mismatch");
  }
  for (std::size_t i = 0; i < series.size(); ++i) stats_[i].add(series[i]);
}

std::vector<double> SeriesStat::means() const {
  std::vector<double> out(stats_.size());
  for (std::size_t i = 0; i < stats_.size(); ++i) out[i] = stats_[i].mean();
  return out;
}

std::vector<double> SeriesStat::stddevs() const {
  std::vector<double> out(stats_.size());
  for (std::size_t i = 0; i < stats_.size(); ++i) out[i] = stats_[i].stddev();
  return out;
}

}  // namespace ncb
