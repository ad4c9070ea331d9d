#include "env/environment.hpp"

#include <cstring>

namespace ncb {
namespace {

/// out[i] = 1.0 iff the i-th draw's top 53 bits are below thr[i], else 0.0.
/// The generator lives in a local copy so its state stays in registers, and
/// the double is built from an integer mask: converting the bool with
/// cvtsi2sd carries a false dependency that costs several times the draw.
void draw_bernoulli_row(const std::uint64_t* thr, double* out, std::size_t n,
                        Xoshiro256& rng) {
  Xoshiro256 local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t hit = (local() >> 11) < thr[i] ? 1 : 0;
    const std::uint64_t bits = (std::uint64_t{0} - hit) & 0x3FF0000000000000ULL;
    std::memcpy(out + i, &bits, sizeof bits);
  }
  rng = local;
}

}  // namespace

Environment::Environment(BanditInstance instance, std::uint64_t seed)
    : Environment(std::make_shared<const BanditInstance>(std::move(instance)),
                  seed) {}

Environment::Environment(std::shared_ptr<const BanditInstance> instance,
                         std::uint64_t seed)
    : instance_(std::move(instance)),
      rng_(seed),
      rewards_(instance_->num_arms(), 0.0) {}

const std::vector<double>& Environment::advance() {
  const std::vector<std::uint64_t>& thresholds =
      instance_->bernoulli_thresholds();
  if (!thresholds.empty()) {
    draw_bernoulli_row(thresholds.data(), rewards_.data(), rewards_.size(),
                       rng_);
  } else {
    for (std::size_t i = 0; i < rewards_.size(); ++i) {
      rewards_[i] = instance_->arm(static_cast<ArmId>(i)).sample(rng_);
    }
  }
  ++slot_;
  return rewards_;
}

double Environment::strategy_reward(const ArmSet& strategy) const {
  double total = 0.0;
  for (const ArmId i : strategy) total += rewards_.at(static_cast<std::size_t>(i));
  return total;
}

double Environment::side_reward(ArmId arm) const {
  double total = 0.0;
  for (const ArmId j : graph().closed_neighborhood(arm)) {
    total += rewards_[static_cast<std::size_t>(j)];
  }
  return total;
}

double Environment::strategy_side_reward(const ArmSet& strategy) const {
  double total = 0.0;
  graph().strategy_neighborhood(strategy).for_each([&](ArmId j) {
    total += rewards_[static_cast<std::size_t>(j)];
  });
  return total;
}

}  // namespace ncb
