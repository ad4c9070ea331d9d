#include "core/ucb1.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"

namespace ncb {

namespace {

double log_slot(TimeSlot t) {
  return std::log(std::max<double>(static_cast<double>(t), 1.0));
}

}  // namespace

double UcbIndexPolicy::index(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return std::numeric_limits<double>::infinity();
  const double bonus =
      std::sqrt(exploration_ * log_slot(t) / static_cast<double>(count));
  return stats_.mean(i) + bonus;
}

const UcbIndexPolicy::RoundTerms& UcbIndexPolicy::round_terms(
    TimeSlot t, TimeSlot horizon) const {
  if (t == round_.slot && horizon == round_.horizon) return round_;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Moves a positive double up by at least 15 ulps.
  constexpr double kPad = 1.0 + 0x1p-48;
  const double clt = exploration_ * log_slot(t);
  double growth = kInf;
  // A negative or non-finite scale breaks monotonicity in t: no bound.
  if (exploration_ >= 0.0 && exploration_ < kInf) {
    // ln t'' ≤ ln t' for t'' ≤ t', and libm's log is within an ulp of it,
    // so the padded clh is at least every computed c·ln t''.
    const double clh = exploration_ * (log_slot(horizon) * kPad);
    if (clh == 0.0) {
      growth = 1.0;  // c = 0 or t' ≤ 1: no bonus at any slot up to t'.
    } else if (clt >= 0x1p-900 && clt < kInf) {
      // Rounding moves sqrt(c·ln t''/O_i) at most ~3 ulps relative to the
      // exact ratio sqrt(clh/clt) times the slot-t bonus; the pad covers
      // that and the rounding of the ratio and of the product below. (At
      // t ≤ 1 the slot-t bonus is 0 and says nothing, and an infinite one
      // gives no ratio: no bound.)
      growth = std::sqrt(clh / clt) * kPad;
    }
  }
  round_ = {t, horizon, clt, growth};
  return round_;
}

double UcbIndexPolicy::refresh_indices(TimeSlot t, TimeSlot horizon,
                                       std::size_t first, std::size_t last,
                                       double* out) const {
  // c·ln t is shared by every arm; hoisting it keeps the loop at one
  // division + one sqrt per arm over the flat SoA arrays. The expression
  // tree (c·lt)/O_i matches index() exactly, so the values are bit-equal.
  // The bound reuses each arm's bonus: X̄_i + bonus·growth is at least the
  // index at every slot up to the horizon, for one multiply per arm.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const RoundTerms& terms = round_terms(t, horizon);
  const double clt = terms.clt;
  const double growth = terms.growth;
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  double bound = growth == kInf ? kInf : -kInf;
  for (std::size_t k = first; k < last; ++k) {
    if (counts[k] == 0) {
      out[k] = kInf;
      bound = kInf;
      continue;
    }
    const double bonus = std::sqrt(clt / static_cast<double>(counts[k]));
    out[k] = means[k] + bonus;
    // A NaN mean drops out of the maximum (`>` is false).
    const double b = means[k] + bonus * growth;
    bound = b > bound ? b : bound;
  }
  return bound;
}

Ucb1::Ucb1(Ucb1Options options)
    : UcbIndexPolicy(options.exploration, options.seed) {}

void Ucb1::observe(ArmId played, TimeSlot /*t*/,
                   ObservationSpan observations) {
  for (const Observation& obs : observations) {
    if (obs.arm == played) {
      absorb(obs.arm, obs.value);
      return;
    }
  }
  throw std::logic_error("Ucb1: played arm missing from observations");
}

std::string Ucb1::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << exploration_ << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegUcb1{{
    "ucb1",
    "classical UCB1; distribution-dependent, no side information",
    kSsoBit | kSsrBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<Ucb1>(Ucb1Options{
          .exploration = p.get_double("c", 2.0), .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
