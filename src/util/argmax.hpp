// Reservoir argmax over a flat score array — the select hot path's scan.
//
// Semantics are pinned to the historical per-arm loop used by every index
// policy (and by epsilon-greedy's exploit step): walk scores in order,
// track the running maximum, and break ties among equal running maxima by
// reservoir sampling — the j-th element tied with the current maximum
// replaces it with probability 1/j, consuming exactly one uniform_int draw
// per tie. The RNG draw count and order are part of the reproducibility
// contract (sweep output is byte-identical across refactors), so any
// faster implementation must replay the draws of that exact loop.
//
// reservoir_argmax is block-vectorized: scores are scanned in fixed-size
// blocks; each block's maximum is reduced first with four independent,
// branch-free accumulator chains (compiles to pipelined maxsd/maxpd — no
// data-dependent branches), and blocks whose maximum stays strictly below
// the running maximum are skipped outright, since no element in them can
// update the maximum or tie with it. Only blocks that contain a potential
// update are re-walked with the exact historical loop, so the RNG sees the
// same draw sequence while the common case (steady state, distinct finite
// indices) runs at memory speed. NaN scores never win and never tie, same
// as the historical loop.
//
// GroupArgmax is the same scan for callers that select over and over while
// only a few scores change in between. It cuts the scores into fixed
// groups of kIndexGroupSize and caches, per group, an upper bound on its
// scores and the last slot the bound holds. select() walks the groups in
// order with one ArgmaxState and skips a group whose bound holds and is
// strictly below the running maximum: as above, nothing in it could move
// or tie the maximum, so the arm and the draw sequence are those of the
// full loop. A group's bound is renewed when it expires, and when the
// caller marks one of its scores changed. Its three callers bring two
// kinds of bound:
//
//  * t-dependent indices (SingleIndexPolicy, kEveryRound): the scores are
//    rewritten at t for every group the walk does not skip, by a range
//    refresh that also returns a bound valid to a look-ahead slot;
//  * cached incremental indices (SingleIndexPolicy, kIncremental) and
//    epsilon-greedy's means: the caller keeps every score current, and the
//    bound is the group's exact block_max, which never expires.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
namespace ncb {

/// Running reservoir state, exposed so callers scanning in several chunks
/// (or mixing scanned and skipped regions) carry ties across chunks.
struct ArgmaxState {
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  std::uint64_t draws = 0;  ///< uniform_int calls consumed by tie-breaking.
};

/// Folds scores[first, last) into `state` with the exact historical
/// reservoir loop (one uniform_int(ties) draw per running-max tie).
inline void reservoir_scan(const double* scores, std::size_t first,
                           std::size_t last, ArgmaxState& state,
                           Xoshiro256& rng) {
  for (std::size_t i = first; i < last; ++i) {
    const double s = scores[i];
    if (s > state.best_score) {
      state.best_score = s;
      state.best = i;
      state.ties = 1;
    } else if (s == state.best_score) {
      ++state.ties;
      ++state.draws;
      if (rng.uniform_int(state.ties) == 0) state.best = i;
    }
  }
}

/// Branch-free maximum of scores[first, last): four independent accumulator
/// chains, `m = s > m ? s : m` per lane (NaN loses). Used to prove a block
/// cannot touch the running maximum before paying for the exact scan.
inline double block_max(const double* scores, std::size_t first,
                        std::size_t last) noexcept {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
  std::size_t i = first;
  for (; i + 4 <= last; i += 4) {
    const double s0 = scores[i], s1 = scores[i + 1];
    const double s2 = scores[i + 2], s3 = scores[i + 3];
    m0 = s0 > m0 ? s0 : m0;
    m1 = s1 > m1 ? s1 : m1;
    m2 = s2 > m2 ? s2 : m2;
    m3 = s3 > m3 ? s3 : m3;
  }
  for (; i < last; ++i) {
    const double s = scores[i];
    m0 = s > m0 ? s : m0;
  }
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return m2 > m0 ? m2 : m0;
}

/// Argmax of scores[0, n) with reservoir tie-breaking, block-skipping
/// regions that provably cannot update or tie the running maximum.
/// Returns the selected position; `draws_out` (optional) receives the
/// number of uniform_int draws consumed. Requires n > 0.
inline std::size_t reservoir_argmax(const double* scores, std::size_t n,
                                    Xoshiro256& rng,
                                    std::uint64_t* draws_out = nullptr) {
  constexpr std::size_t kBlock = 256;
  ArgmaxState state;
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t end = begin + kBlock < n ? begin + kBlock : n;
    // Skip iff every element is strictly below the running maximum; the
    // >= comparison keeps -inf/+inf plateaus and first-block semantics
    // exactly on the historical path (NaN-only blocks reduce to -inf and
    // are scanned only while best_score is still -inf, where the
    // historical loop also ignores them).
    if (block_max(scores, begin, end) >= state.best_score) {
      reservoir_scan(scores, begin, end, state, rng);
    }
  }
  if (draws_out != nullptr) *draws_out += state.draws;
  return state.best;
}

/// Scores per GroupArgmax group (the last group may be shorter).
inline constexpr std::size_t kIndexGroupSize = 32;

/// A renewed group bound: at least every non-NaN score of the group at
/// every slot up to `until`, while the caller marks no score changed.
struct GroupBound {
  double bound;
  TimeSlot until;
};

class GroupArgmax {
 public:
  /// Sizes the walk for n scores and marks every group.
  void reset(std::size_t n) {
    n_ = n;
    const std::size_t groups = (n + kIndexGroupSize - 1) / kIndexGroupSize;
    bound_.assign(groups, kMarked);
    until_.assign(groups, 0);
    groups_evaluated_ = 0;
    tie_break_draws_ = 0;
  }

  /// Score i changed: its group's bound no longer holds.
  void mark(std::size_t i) noexcept { bound_[i / kIndexGroupSize] = kMarked; }
  void mark_all() noexcept {
    std::fill(bound_.begin(), bound_.end(), kMarked);
  }

  /// t-dependent scores: every group the walk does not skip is rewritten
  /// first by evaluate(first, last), which writes scores[first, last) at t
  /// and returns their GroupBound. Returns the argmax position.
  template <class Evaluate>
  std::size_t select(const double* scores, TimeSlot t, Evaluate&& evaluate,
                     Xoshiro256& rng) {
    return walk<true>(scores, t, evaluate, rng);
  }

  /// Scores the caller keeps current, marking every change: a marked
  /// group's bound is renewed as its exact block_max, which then stands
  /// for the group's maximum until the next mark.
  std::size_t select(const double* scores, Xoshiro256& rng) {
    return walk<false>(
        scores, 0,
        [scores](std::size_t first, std::size_t last) {
          return GroupBound{block_max(scores, first, last), 0};
        },
        rng);
  }

  /// Groups select() did not skip since the last reset().
  [[nodiscard]] std::uint64_t groups_evaluated() const noexcept {
    return groups_evaluated_;
  }
  /// uniform_int tie-break draws select() consumed since the last reset().
  [[nodiscard]] std::uint64_t tie_break_draws() const noexcept {
    return tie_break_draws_;
  }

 private:
  // A marked group's bound: NaN compares below nothing, so the walk never
  // skips the group and renews its bound.
  static constexpr double kMarked = std::numeric_limits<double>::quiet_NaN();

  template <bool kRescore, class Evaluate>
  std::size_t walk(const double* scores, TimeSlot t, Evaluate&& evaluate,
                   Xoshiro256& rng) {
    ArgmaxState state;
    const std::size_t groups = bound_.size();
    for (std::size_t g = 0; g < groups; ++g) {
      // Strictly below: no score in the group can move or tie the maximum.
      // Current scores' bounds never expire.
      if (bound_[g] < state.best_score && (!kRescore || t <= until_[g])) {
        continue;
      }
      ++groups_evaluated_;
      const std::size_t first = g * kIndexGroupSize;
      const std::size_t last = std::min(first + kIndexGroupSize, n_);
      if (kRescore || std::isnan(bound_[g])) {
        const GroupBound renewed = evaluate(first, last);
        bound_[g] = renewed.bound;
        until_[g] = renewed.until;
      }
      // As in reservoir_argmax: only a group that can reach the maximum
      // needs the exact loop.
      const double group_max =
          kRescore ? block_max(scores, first, last) : bound_[g];
      if (group_max >= state.best_score) {
        reservoir_scan(scores, first, last, state, rng);
      }
    }
    tie_break_draws_ += state.draws;
    return state.best;
  }

  std::size_t n_ = 0;
  std::vector<double> bound_;    // kMarked once a score changed
  std::vector<TimeSlot> until_;  // t-dependent scores only
  std::uint64_t groups_evaluated_ = 0;
  std::uint64_t tie_break_draws_ = 0;
};

}  // namespace ncb
