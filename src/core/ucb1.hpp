// UCB1 (Auer, Cesa-Bianchi & Fischer 2002): the classical index policy,
// X̄_i + sqrt(2 ln t / T_i). Distribution-dependent baseline without side
// information.
#pragma once

#include "core/index_policy.hpp"

namespace ncb {

/// The UCB1 index X̄_i + sqrt(c·ln t / O_i) over the stats table, shared by
/// UCB1 (O_i = play count) and UCB-N / UCB-MaxN (O_i = observation count).
/// Between observations of arm i the index is nondecreasing in t, so it
/// supplies the kEveryRound bound hook and select() skips most groups.
class UcbIndexPolicy : public ArmStatIndexPolicy {
 public:
  [[nodiscard]] double index(ArmId i, TimeSlot t) const override;

 protected:
  UcbIndexPolicy(double exploration, std::uint64_t seed)
      : ArmStatIndexPolicy(seed), exploration_(exploration) {}

  /// Range refresh with c·ln t hoisted out of the per-arm loop; the bound
  /// scales each arm's bonus by sqrt(ln t'/ln t), padded up by a few ulps
  /// so it holds whatever rounding libm's log and the arithmetic do.
  double refresh_indices(TimeSlot t, TimeSlot horizon, std::size_t first,
                         std::size_t last, double* out) const override;

  double exploration_;

 private:
  /// The per-round terms of one (t, horizon) pair: c·ln t, and the factor
  /// that takes a slot-t bonus to an upper bound on that arm's bonus at
  /// every slot up to the horizon (+inf where none can be given).
  /// Remembered for the last pair asked for, since a select evaluates all
  /// its groups with one pair.
  struct RoundTerms {
    TimeSlot slot = std::numeric_limits<TimeSlot>::min();
    TimeSlot horizon = std::numeric_limits<TimeSlot>::min();
    double clt = 0.0;
    double growth = std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] const RoundTerms& round_terms(TimeSlot t,
                                              TimeSlot horizon) const;

  mutable RoundTerms round_;
};

struct Ucb1Options {
  /// Exploration scale; 2.0 is the textbook constant.
  double exploration = 2.0;
  std::uint64_t seed = 0x5eed0cb1;
};

class Ucb1 final : public UcbIndexPolicy {
 public:
  explicit Ucb1(Ucb1Options options = {});

  /// Played-only update: UCB1 ignores side observations.
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;
  [[nodiscard]] std::string name() const override { return "UCB1"; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::int64_t play_count(ArmId i) const {
    return observation_count(i);
  }
};

}  // namespace ncb
