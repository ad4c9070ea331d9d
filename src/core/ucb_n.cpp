#include "core/ucb_n.hpp"

#include <sstream>

#include "core/policy_registry.hpp"

namespace ncb {

UcbN::UcbN(UcbNOptions options)
    : UcbIndexPolicy(options.exploration, options.seed),
      max_variant_(options.max_variant) {}

void UcbN::on_reset(const Graph& graph) {
  graph_ = graph;
  ArmStatIndexPolicy::on_reset(graph);
}

ArmId UcbN::refine_selection(ArmId best) {
  if (!max_variant_) return best;
  // UCB-MaxN: play the best empirical arm among N_{best}.
  return best_empirical_in_neighborhood(graph_, best);
}

std::string UcbN::name() const {
  return max_variant_ ? "UCB-MaxN" : "UCB-N";
}

std::string UcbN::describe() const {
  std::ostringstream out;
  out << name() << "(c=" << exploration_ << ")";
  return out.str();
}

namespace {

const PolicyRegistration kRegUcbN{{
    "ucb-n",
    "UCB1 index over observation counts (side observations included)",
    kSsoBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<UcbN>(UcbNOptions{
          .exploration = p.get_double("c", 2.0),
          .max_variant = false,
          .seed = ctx.seed});
    },
    nullptr,
}};

const PolicyRegistration kRegUcbMaxN{{
    "ucb-maxn",
    "UCB-N that plays the best empirical arm in the chosen neighborhood",
    kSsoBit,
    {{"c", ParamKind::kDouble, "exploration scale", "2.0", false}},
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<UcbN>(UcbNOptions{
          .exploration = p.get_double("c", 2.0),
          .max_variant = true,
          .seed = ctx.seed});
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
