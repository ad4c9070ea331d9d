#include "core/dfl_ssr.hpp"

#include <limits>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/math.hpp"

namespace ncb {

DflSsr::DflSsr(DflSsrOptions options)
    : SingleIndexPolicy(options.seed), options_(options) {}

void DflSsr::on_reset(const Graph& graph) {
  graph_ = graph;
  direct_.reset(num_arms_);
  prefix_sums_.assign(num_arms_, {});
  if (options_.estimator == SsrEstimator::kPaired) {
    for (auto& ps : prefix_sums_) ps.reserve(64);
  }
  ob_.assign(num_arms_, 0);
  at_min_.resize(num_arms_);
  for (std::size_t i = 0; i < num_arms_; ++i) {
    at_min_[i] =
        static_cast<std::uint32_t>(graph_.degree(static_cast<ArmId>(i)) + 1);
  }
  paired_mean_.assign(num_arms_, 0.0);
}

void DflSsr::rescan_side_count(std::size_t i) {
  const std::int64_t* counts = direct_.counts();
  const ArmSpan nbhd = graph_.closed_neighborhood(static_cast<ArmId>(i));
  std::int64_t ob = std::numeric_limits<std::int64_t>::max();
  std::uint32_t at_min = 0;
  for (const ArmId j : nbhd) {
    const std::int64_t c = counts[static_cast<std::size_t>(j)];
    if (c < ob) {
      ob = c;
      at_min = 1;
    } else if (c == ob) {
      ++at_min;
    }
  }
  ob_[i] = ob;
  at_min_[i] = at_min;
  if (options_.estimator != SsrEstimator::kPaired || ob == 0) return;
  // Paired: average of the first Ob_i paired sums, which equals the sum of
  // each neighbor's mean over its first Ob_i observations.
  double total = 0.0;
  for (const ArmId j : nbhd) {
    total += prefix_sums_[static_cast<std::size_t>(j)][static_cast<std::size_t>(ob - 1)];
  }
  paired_mean_[i] = total / static_cast<double>(ob);
}

double DflSsr::estimate(std::size_t i) const {
  if (options_.estimator == SsrEstimator::kPaired) return paired_mean_[i];
  const double* means = direct_.means();
  double total = 0.0;
  for (const ArmId j : graph_.closed_neighborhood(static_cast<ArmId>(i))) {
    total += means[static_cast<std::size_t>(j)];
  }
  return total;
}

double DflSsr::side_reward_estimate(ArmId i) const {
  const auto k = static_cast<std::size_t>(i);
  if (k >= num_arms_) {
    throw std::out_of_range("DflSsr::side_reward_estimate: arm out of range");
  }
  return estimate(k);
}

IndexRefresh DflSsr::refresh_index(ArmId i, TimeSlot t) const {
  const auto k = static_cast<std::size_t>(i);
  const std::int64_t ob = ob_[k];
  if (ob == 0) {
    return {std::numeric_limits<double>::infinity(), kIndexValidForever};
  }
  // Same width plateau as DFL-SSO, over the side-reward counter Ob_i.
  const std::int64_t plateau = static_cast<std::int64_t>(num_arms_) * ob;
  if (t <= plateau) return {estimate(k) + 0.0, plateau};
  const double ratio = static_cast<double>(t) /
                       (static_cast<double>(num_arms_) * static_cast<double>(ob));
  return {estimate(k) + exploration_width(ratio, static_cast<double>(ob)), t};
}

double DflSsr::index(ArmId i, TimeSlot t) const {
  return refresh_index(i, t).value;
}

void DflSsr::observe(ArmId /*played*/, TimeSlot /*t*/,
                     ObservationSpan observations) {
  const bool paired = options_.estimator == SsrEstimator::kPaired;
  const std::int64_t* counts = direct_.counts();
  for (const Observation& obs : observations) {
    const auto j = static_cast<std::size_t>(obs.arm);
    direct_.add(obs.arm, obs.value);
    if (paired) {
      const double prev = prefix_sums_[j].empty() ? 0.0 : prefix_sums_[j].back();
      prefix_sums_[j].push_back(prev + obs.value);
    }
    // O_j left `before`: each closed neighbor i whose minimum it held
    // loses one arm at Ob_i, and Ob_i moves once none is left. The graph
    // is undirected, so those i are exactly N_j.
    const std::int64_t before = counts[j] - 1;
    for (const ArmId i : graph_.closed_neighborhood(obs.arm)) {
      const auto k = static_cast<std::size_t>(i);
      if (ob_[k] != before || --at_min_[k] != 0) continue;
      rescan_side_count(k);
      if (paired) mark_index_dirty(i);
    }
  }
  if (paired) return;
  // A mean-sum index reads the means over its *closed neighborhood*, so
  // the stale set is the union of the observed arms' closed neighborhoods
  // (two hops from the played arm). When scanning that union would cost
  // ≥ K marks, flooding the whole cache is cheaper.
  if (!all_indices_dirty()) {
    std::size_t touched = 0;
    for (const Observation& obs : observations) {
      touched += graph_.degree(obs.arm) + 1;
    }
    if (touched >= num_arms_) {
      mark_all_indices_dirty();
    } else {
      for (const Observation& obs : observations) {
        for (const ArmId j : graph_.closed_neighborhood(obs.arm)) {
          mark_index_dirty(j);
        }
      }
    }
  }
}

std::string DflSsr::name() const {
  return options_.estimator == SsrEstimator::kPaired ? "DFL-SSR"
                                                     : "DFL-SSR(mean-sum)";
}

std::string DflSsr::describe() const {
  return options_.estimator == SsrEstimator::kPaired
             ? "DFL-SSR(estimator=paired)"
             : "DFL-SSR(estimator=mean-sum)";
}

namespace {

const PolicyRegistration kRegDflSsr{{
    "dfl-ssr",
    "Algorithm 3: single-play side-reward learner, paired estimator",
    kSsrBit,
    {},
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSsr>(
          DflSsrOptions{.estimator = SsrEstimator::kPaired, .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegDflSsrMeanSum{{
    "dfl-ssr-meansum",
    "DFL-SSR with the O(K)-memory mean-sum estimator",
    kSsrBit,
    {},
    [](const PolicyParams&, const PolicyBuildContext& ctx) {
      return std::make_unique<DflSsr>(DflSsrOptions{
          .estimator = SsrEstimator::kMeanSum, .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
