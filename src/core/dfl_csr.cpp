#include "core/dfl_csr.hpp"

#include <cmath>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/math.hpp"

namespace ncb {

DflCsr::DflCsr(std::shared_ptr<const FeasibleSet> family,
               std::shared_ptr<const CoverageOracle> oracle,
               DflCsrOptions options)
    : family_(std::move(family)),
      oracle_(oracle ? std::move(oracle)
                     : std::make_shared<const ExactCoverageOracle>()),
      options_(options) {
  if (!family_) throw std::invalid_argument("DflCsr: null family");
  reset();
}

void DflCsr::reset() {
  stats_.reset(family_->graph().num_vertices());
  scores_.assign(stats_.size(), 0.0);
}

double DflCsr::arm_score(ArmId i, TimeSlot t) const {
  const std::int64_t count = stats_.count(i);
  if (count == 0) return options_.unobserved_score;
  // ln(t^{2/3} / (K·O_i)) clipped at zero, per Equation (47).
  const double k = static_cast<double>(stats_.size());
  const double ratio =
      std::pow(static_cast<double>(t), 2.0 / 3.0) /
      (k * static_cast<double>(count));
  return stats_.mean(i) + exploration_width(ratio, static_cast<double>(count));
}

StrategyId DflCsr::select(TimeSlot t) {
  // t^{2/3} is shared by every arm; hoist it so the per-arm work is one
  // division + sqrt over the flat SoA arrays (same tree as arm_score).
  const double t23 = std::pow(static_cast<double>(t), 2.0 / 3.0);
  const double k = static_cast<double>(stats_.size());
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    if (counts[i] == 0) {
      scores_[i] = options_.unobserved_score;
      continue;
    }
    const double ratio = t23 / (k * static_cast<double>(counts[i]));
    scores_[i] = means[i] + exploration_width(ratio, static_cast<double>(counts[i]));
  }
  return oracle_->select(*family_, scores_);
}

void DflCsr::observe(StrategyId /*played*/, TimeSlot /*t*/,
                     ObservationSpan observations) {
  // Observations cover Y_x; update every revealed arm in one batched pass
  // (pseudocode line "for k ∈ Y_x").
  for (const Observation& obs : observations) {
    stats_.add(obs.arm, obs.value);
  }
}

std::string DflCsr::name() const {
  return oracle_->name() == "exact" ? "DFL-CSR" : "DFL-CSR(greedy)";
}

namespace {

const std::vector<ParamSpec> kDflCsrParams{
    {"unobserved", ParamKind::kDouble,
     "score stand-in for +inf on never-observed arms", "1e6", false}};

const PolicyRegistration kRegDflCsr{{
    "dfl-csr",
    "Algorithm 4: combinatorial side-reward learner, exact oracle",
    kCsrBit,
    kDflCsrParams,
    nullptr,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<DflCsr>(
          ctx.family, nullptr,
          DflCsrOptions{.unobserved_score = p.get_double("unobserved", 1e6)});
    },
}};

const PolicyRegistration kRegDflCsrGreedy{{
    "dfl-csr-greedy",
    "DFL-CSR with the scalable (1-1/e)-approximate lazy-greedy oracle",
    kCsrBit,
    kDflCsrParams,
    nullptr,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<DflCsr>(
          ctx.family, std::make_shared<const GreedyCoverageOracle>(),
          DflCsrOptions{.unobserved_score = p.get_double("unobserved", 1e6)});
    },
}};

}  // namespace

}  // namespace ncb
