#include "core/nonstationary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/math.hpp"

namespace ncb {

SwDflSso::SwDflSso(SwDflSsoOptions options)
    : SingleIndexPolicy(options.seed), options_(options) {
  if (options.window <= 0) {
    throw std::invalid_argument("SwDflSso: window must be positive");
  }
}

void SwDflSso::on_reset(const Graph& /*graph*/) {
  samples_.clear();
  counts_.assign(num_arms_, 0);
  sums_.assign(num_arms_, 0.0);
}

void SwDflSso::evict_older_than(TimeSlot cutoff) {
  while (!samples_.empty() && samples_.front().slot <= cutoff) {
    const Sample& s = samples_.front();
    --counts_[static_cast<std::size_t>(s.arm)];
    sums_[static_cast<std::size_t>(s.arm)] -= s.value;
    // Eviction changes the arm's windowed statistics just like an
    // observation does — its cached index must be recomputed.
    mark_index_dirty(s.arm);
    samples_.pop_front();
  }
}

double SwDflSso::window_mean(ArmId i) const {
  const auto idx = static_cast<std::size_t>(i);
  return counts_[idx] > 0 ? sums_[idx] / static_cast<double>(counts_[idx])
                          : 0.0;
}

IndexRefresh SwDflSso::refresh_index(ArmId i, TimeSlot t) const {
  const std::int64_t raw = counts_.at(static_cast<std::size_t>(i));
  if (raw <= 0) {
    return {std::numeric_limits<double>::infinity(), kIndexValidForever};
  }
  const double count = static_cast<double>(raw);
  if (t >= options_.window) {
    // The effective horizon is frozen at `window`: the index is
    // t-independent and only observation/eviction dirty-marking moves it.
    const double ratio = static_cast<double>(options_.window) /
                         (static_cast<double>(num_arms_) * count);
    return {window_mean(i) + exploration_width(ratio, count),
            kIndexValidForever};
  }
  // t < window: effective horizon is t, so the DFL plateau argument
  // applies — width is exactly zero while t ≤ K·c. If the plateau outlasts
  // the window, the frozen ratio window/(K·c) ≤ 1 keeps it zero forever.
  const std::int64_t plateau = static_cast<std::int64_t>(num_arms_) * raw;
  if (t <= plateau) {
    return {window_mean(i) + 0.0,
            plateau >= options_.window ? kIndexValidForever : plateau};
  }
  const double ratio =
      static_cast<double>(t) / (static_cast<double>(num_arms_) * count);
  return {window_mean(i) + exploration_width(ratio, count), t};
}

double SwDflSso::index(ArmId i, TimeSlot t) const {
  return refresh_index(i, t).value;
}

void SwDflSso::before_select(TimeSlot t) {
  evict_older_than(t - options_.window);
}

void SwDflSso::observe(ArmId /*played*/, TimeSlot t,
                       ObservationSpan observations) {
  for (const Observation& obs : observations) {
    samples_.push_back({t, obs.arm, obs.value});
    ++counts_[static_cast<std::size_t>(obs.arm)];
    sums_[static_cast<std::size_t>(obs.arm)] += obs.value;
    mark_index_dirty(obs.arm);
  }
  evict_older_than(t - options_.window);
}

std::string SwDflSso::name() const {
  std::ostringstream out;
  out << "SW-DFL-SSO(w=" << options_.window << ")";
  return out.str();
}

DiscountedDflSso::DiscountedDflSso(DiscountedDflSsoOptions options)
    : SingleIndexPolicy(options.seed), options_(options) {
  if (options.discount <= 0.0 || options.discount > 1.0) {
    throw std::invalid_argument("DiscountedDflSso: discount outside (0,1]");
  }
}

void DiscountedDflSso::on_reset(const Graph& /*graph*/) {
  counts_.assign(num_arms_, 0.0);
  sums_.assign(num_arms_, 0.0);
}

double DiscountedDflSso::discounted_mean(ArmId i) const {
  const auto idx = static_cast<std::size_t>(i);
  return counts_[idx] > 1e-12 ? sums_[idx] / counts_[idx] : 0.0;
}

double DiscountedDflSso::index(ArmId i, TimeSlot t) const {
  const double count = counts_.at(static_cast<std::size_t>(i));
  if (count <= 1e-12) return std::numeric_limits<double>::infinity();
  // Effective horizon under discounting: 1/(1-γ) once saturated.
  const double effective_t =
      options_.discount < 1.0
          ? std::min(static_cast<double>(t), 1.0 / (1.0 - options_.discount))
          : static_cast<double>(t);
  const double ratio = effective_t / (static_cast<double>(num_arms_) * count);
  return discounted_mean(i) + exploration_width(ratio, count);
}

double DiscountedDflSso::refresh_indices(TimeSlot t, TimeSlot /*horizon*/,
                                         std::size_t first, std::size_t last,
                                         double* out) const {
  // Effective horizon under discounting: 1/(1-γ) once saturated. Shared by
  // every arm, so computed once per round.
  const double effective_t =
      options_.discount < 1.0
          ? std::min(static_cast<double>(t), 1.0 / (1.0 - options_.discount))
          : static_cast<double>(t);
  const double k_arms = static_cast<double>(num_arms_);
  for (std::size_t i = first; i < last; ++i) {
    if (counts_[i] <= 1e-12) {
      out[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    const double ratio = effective_t / (k_arms * counts_[i]);
    out[i] = sums_[i] / counts_[i] + exploration_width(ratio, counts_[i]);
  }
  return std::numeric_limits<double>::infinity();
}

void DiscountedDflSso::observe(ArmId /*played*/, TimeSlot /*t*/,
                               ObservationSpan observations) {
  // One decay step per slot, then absorb the new samples at full weight.
  for (std::size_t i = 0; i < num_arms_; ++i) {
    counts_[i] *= options_.discount;
    sums_[i] *= options_.discount;
  }
  for (const Observation& obs : observations) {
    counts_[static_cast<std::size_t>(obs.arm)] += 1.0;
    sums_[static_cast<std::size_t>(obs.arm)] += obs.value;
  }
}

std::string DiscountedDflSso::name() const {
  std::ostringstream out;
  out << "D-DFL-SSO(g=" << options_.discount << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegSwDflSso{{
    "sw-dfl-sso",
    "DFL-SSO over a sliding window (non-stationary remedy)",
    kSsoBit,
    {{"window", ParamKind::kInt,
      "slots retained; \"auto\" = horizon/5 (1000 when unknown)", "auto",
      true}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      const TimeSlot fallback = ctx.horizon > 0 ? ctx.horizon / 5 : 1000;
      return std::make_unique<SwDflSso>(SwDflSsoOptions{
          .window = p.get_int("window", fallback), .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegDiscountedDflSso{{
    "d-dfl-sso",
    "DFL-SSO with exponential forgetting (non-stationary remedy)",
    kSsoBit,
    {{"discount", ParamKind::kDouble, "per-slot decay in (0,1]", "0.999",
      false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<DiscountedDflSso>(DiscountedDflSsoOptions{
          .discount = p.get_double("discount", 0.999), .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
