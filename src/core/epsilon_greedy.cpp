#include "core/epsilon_greedy.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"
#include "util/argmax.hpp"

namespace ncb {

EpsilonGreedy::EpsilonGreedy(EpsilonGreedyOptions options)
    : options_(options), rng_(options.seed) {
  if (options.epsilon < 0.0 || options.epsilon > 1.0) {
    throw std::invalid_argument("EpsilonGreedy: epsilon outside [0,1]");
  }
}

void EpsilonGreedy::reset(const Graph& graph) {
  num_arms_ = graph.num_vertices();
  stats_.reset(num_arms_);
  rng_ = Xoshiro256(options_.seed);
  unvisited_cursor_ = 0;
  exploit_.reset(num_arms_);
}

double EpsilonGreedy::epsilon_at(TimeSlot t) const {
  if (!options_.decay) return options_.epsilon;
  const double eps = options_.c * static_cast<double>(num_arms_) /
                     (options_.d * options_.d * static_cast<double>(std::max<TimeSlot>(t, 1)));
  return std::min(1.0, eps);
}

ArmId EpsilonGreedy::select(TimeSlot t) {
  if (num_arms_ == 0) throw std::logic_error("EpsilonGreedy: reset() not called");
  // Explore unvisited arms first so the greedy step has data. The cursor
  // only moves forward (counts are monotone), so returns are identical to
  // the historical full scan at amortized O(1) per call.
  const std::int64_t* counts = stats_.counts();
  while (unvisited_cursor_ < num_arms_ && counts[unvisited_cursor_] != 0) {
    ++unvisited_cursor_;
  }
  if (unvisited_cursor_ < num_arms_) {
    return static_cast<ArmId>(unvisited_cursor_);
  }
  if (rng_.bernoulli(epsilon_at(t))) {
    return static_cast<ArmId>(rng_.uniform_int(num_arms_));
  }
  // Exploit: the group walk over the flat mean array, with the same
  // reservoir tie-break draw sequence as the historical full loop.
  return static_cast<ArmId>(exploit_.select(stats_.means(), rng_));
}

void EpsilonGreedy::observe(ArmId played, TimeSlot /*t*/,
                            ObservationSpan observations) {
  for (const Observation& obs : observations) {
    if (options_.use_side_observations || obs.arm == played) {
      stats_.add(obs.arm, obs.value);
      exploit_.mark(static_cast<std::size_t>(obs.arm));
    }
  }
}

std::string EpsilonGreedy::name() const {
  std::string base = options_.decay ? "eps-greedy-decay" : "eps-greedy";
  if (options_.use_side_observations) base += "+side";
  return base;
}

std::string EpsilonGreedy::describe() const {
  std::ostringstream out;
  out << name();
  if (options_.decay) {
    out << "(c=" << options_.c << ",d=" << options_.d << ")";
  } else {
    out << "(eps=" << options_.epsilon << ")";
  }
  return out.str();
}

namespace {

const std::vector<ParamSpec> kEpsGreedyParams{
    {"eps", ParamKind::kDouble, "exploration probability (fixed mode)", "0.1",
     false},
    {"decay", ParamKind::kBool, "use the 1/t decay schedule", "false", false},
    {"c", ParamKind::kDouble, "decay numerator constant", "5.0", false},
    {"d", ParamKind::kDouble, "decay gap parameter", "0.1", false}};

EpsilonGreedyOptions eps_greedy_options(const PolicyParams& p,
                                        const PolicyBuildContext& ctx,
                                        bool side) {
  EpsilonGreedyOptions opts;
  opts.epsilon = p.get_double("eps", opts.epsilon);
  opts.decay = p.get_bool("decay", opts.decay);
  opts.c = p.get_double("c", opts.c);
  opts.d = p.get_double("d", opts.d);
  opts.use_side_observations = side;
  opts.seed = ctx.seed;
  return opts;
}

const PolicyRegistration kRegEpsGreedy{{
    "eps-greedy",
    "epsilon-greedy sanity baseline (played arm only)",
    kSsoBit | kSsrBit,
    kEpsGreedyParams,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<EpsilonGreedy>(eps_greedy_options(p, ctx, false));
    },
    nullptr,
}};

const PolicyRegistration kRegEpsGreedySide{{
    "eps-greedy-side",
    "epsilon-greedy consuming side observations",
    kSsoBit,
    kEpsGreedyParams,
    [](const PolicyParams& p, const PolicyBuildContext& ctx) {
      return std::make_unique<EpsilonGreedy>(eps_greedy_options(p, ctx, true));
    },
    nullptr,
}};

}  // namespace

}  // namespace ncb
