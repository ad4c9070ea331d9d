#include "env/instance.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ncb {

BanditInstance::BanditInstance(Graph graph, std::vector<DistributionPtr> arms)
    : graph_(std::move(graph)), arms_(std::move(arms)) {
  if (arms_.size() != graph_.num_vertices()) {
    throw std::invalid_argument(
        "BanditInstance: one distribution per vertex required");
  }
  for (const auto& a : arms_) {
    if (!a) throw std::invalid_argument("BanditInstance: null distribution");
  }
  if (arms_.empty()) {
    throw std::invalid_argument("BanditInstance: need at least one arm");
  }
  recompute();
}

BanditInstance::BanditInstance(const BanditInstance& other)
    : graph_(other.graph_),
      means_(other.means_),
      side_means_(other.side_means_),
      bernoulli_thresholds_(other.bernoulli_thresholds_),
      best_arm_(other.best_arm_),
      best_side_arm_(other.best_side_arm_) {
  arms_.reserve(other.arms_.size());
  for (const auto& a : other.arms_) arms_.push_back(a->clone());
}

BanditInstance& BanditInstance::operator=(const BanditInstance& other) {
  if (this == &other) return *this;
  BanditInstance copy(other);
  *this = std::move(copy);
  return *this;
}

void BanditInstance::recompute() {
  const std::size_t n = arms_.size();
  means_.resize(n);
  for (std::size_t i = 0; i < n; ++i) means_[i] = arms_[i]->mean();
  side_means_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const ArmId j : graph_.closed_neighborhood(static_cast<ArmId>(i))) {
      side_means_[i] += means_[static_cast<std::size_t>(j)];
    }
  }
  // A p ≤ 0 or p ≥ 1 arm draws nothing and any other distribution draws
  // its own way, so either keeps the whole row on the per-arm path.
  const auto drawable = [](const DistributionPtr& a) {
    const double p = a->mean();
    return dynamic_cast<const BernoulliDist*>(a.get()) != nullptr && p > 0.0 &&
           p < 1.0;
  };
  bernoulli_thresholds_.clear();
  if (std::all_of(arms_.begin(), arms_.end(), drawable)) {
    bernoulli_thresholds_.reserve(n);
    for (const auto& a : arms_) {
      bernoulli_thresholds_.push_back(
          static_cast<std::uint64_t>(std::ceil(std::ldexp(a->mean(), 53))));
    }
  }
  best_arm_ = static_cast<ArmId>(
      std::max_element(means_.begin(), means_.end()) - means_.begin());
  best_side_arm_ = static_cast<ArmId>(
      std::max_element(side_means_.begin(), side_means_.end()) -
      side_means_.begin());
}

double BanditInstance::strategy_mean(const ArmSet& strategy) const {
  double total = 0.0;
  for (const ArmId i : strategy) total += means_.at(static_cast<std::size_t>(i));
  return total;
}

double BanditInstance::strategy_side_reward_mean(const ArmSet& strategy) const {
  double total = 0.0;
  graph_.strategy_neighborhood(strategy).for_each([&](ArmId j) {
    total += means_[static_cast<std::size_t>(j)];
  });
  return total;
}

std::string BanditInstance::to_string() const {
  std::ostringstream out;
  out << "BanditInstance K=" << num_arms() << " best_arm=" << best_arm_
      << " (mu=" << best_mean() << ")\n";
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    out << "  arm " << i << ": " << arms_[i]->name() << " u_i=" << side_means_[i]
        << '\n';
  }
  return out.str();
}

BanditInstance random_bernoulli_instance(Graph graph, Xoshiro256& rng,
                                         double mean_lo, double mean_hi) {
  std::vector<DistributionPtr> arms;
  arms.reserve(graph.num_vertices());
  for (std::size_t i = 0; i < graph.num_vertices(); ++i) {
    arms.push_back(
        std::make_unique<BernoulliDist>(rng.uniform(mean_lo, mean_hi)));
  }
  return BanditInstance(std::move(graph), std::move(arms));
}

BanditInstance bernoulli_instance(Graph graph,
                                  const std::vector<double>& means) {
  std::vector<DistributionPtr> arms;
  arms.reserve(means.size());
  for (const double mu : means) arms.push_back(std::make_unique<BernoulliDist>(mu));
  return BanditInstance(std::move(graph), std::move(arms));
}

BanditInstance random_beta_instance(Graph graph, Xoshiro256& rng) {
  std::vector<DistributionPtr> arms;
  arms.reserve(graph.num_vertices());
  for (std::size_t i = 0; i < graph.num_vertices(); ++i) {
    // Mean u in (0,1); pick a = 1+4u and b = a(1-u)/u so that a/(a+b) = u.
    const double u = std::clamp(rng.uniform(), 0.05, 0.95);
    const double a = 1.0 + 4.0 * u;
    const double b = a * (1.0 - u) / u;
    arms.push_back(std::make_unique<BetaDist>(a, b));
  }
  return BanditInstance(std::move(graph), std::move(arms));
}

}  // namespace ncb
