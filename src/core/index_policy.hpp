// Shared skeleton for the single-play index policies.
//
// Every stochastic index learner in this codebase (DFL-SSO, DFL-SSR, MOSS,
// UCB1, UCB-N, KL-UCB, the non-stationary DFL variants) selects
// argmax_i index(i, t) with uniform random tie-breaking. SingleIndexPolicy
// owns that loop plus the seeded reset plumbing so the per-policy code is
// just the index formula and the statistics it reads.
//
// select() never evaluates the virtual index() per arm. It maintains a flat
// per-arm index array and runs the reservoir argmax (util/argmax.hpp) over
// it; how the array is kept current is the policy's IndexRefreshMode:
//
//  * kEveryRound — the index depends on t every slot (UCB1's ln t, KL-UCB's
//    budget). The arms are cut into fixed groups of kIndexGroupSize
//    consecutive arms, and each group keeps an upper bound on every index
//    in it, valid up to a look-ahead slot t' = t + t/512 of the select
//    that computed it. select() walks the groups in arm order carrying one
//    ArgmaxState. A group whose bound is strictly below the running
//    maximum is skipped. Any other group is evaluated by the range refresh
//    refresh_indices(t, t', first, last, out), which hoists the per-round
//    shared terms (log t, the KL budget) out of the per-arm loop, and is
//    folded into the state by the reservoir scan. A group is evaluated
//    regardless of its bound when it holds an arm observed since the last
//    select (the dirty marks), when t has passed its t', and on the select
//    after reset() or invalidate_index_cache().
//
//    The bound is the bound hook: refresh_indices() returns, along with
//    the exact indices, an upper bound on them at every slot up to t'
//    while the arms' statistics stay unchanged, so it needs an index that
//    is nondecreasing in t between observations. Evaluating a group
//    therefore always renews its bound at no extra pass. The default
//    bound, +inf, never lets a group be skipped: every index is evaluated,
//    as any t-dependent policy without a bound needs. UCB1 and UCB-N
//    supply one; an unplayed arm (index +inf) makes its group's bound +inf.
//
//    Skipping is exact: every index in a skipped group is at most its
//    bound, which is below the running maximum, so the historical loop
//    would have neither moved the maximum nor counted a tie there — no
//    comparison outcome and no tie-break draw changes. A NaN index never
//    wins and never ties, so it may be left out of its group's bound. The
//    argmax, the RNG draw sequence and tie_break_draws() are those of a
//    full evaluation.
//  * kIncremental — the index of an untouched arm is constant until a known
//    future slot (the DFL family: width = sqrt(log⁺(t/(K·O_i))/O_i) is
//    exactly zero while t ≤ K·O_i, so the index sits at the empirical mean
//    on a "plateau"). observe() marks exactly the touched arms stale via
//    mark_index_dirty(); refresh_index() returns each refreshed value with
//    the last slot it stays valid (valid_until), and select() re-refreshes
//    an arm only when it is dirty or its plateau expired — tracked by a
//    lazy-deletion min-heap keyed on valid_until.
//
// Both paths produce bit-for-the-comparisons-identical values to the
// from-scratch index(), so the argmax comparisons — and therefore the
// tie-break RNG draw sequence and every downstream selection — are exactly
// reproduced (regression-tested against pre-refactor goldens).
//
// ArmStatIndexPolicy additionally owns the per-arm SoA stats table and
// default-implements observe() as the *batched* update path: the whole
// ObservationSpan is folded into the stats in one pass and each touched arm
// is dirty-marked, which is what the side-observation learners (DFL-SSO,
// UCB-N, KL-UCB-N) want. Played-only learners (MOSS, UCB1) override
// observe() to filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/arm_stats.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace ncb {

/// How a policy's cached per-arm indices age between selects.
enum class IndexRefreshMode {
  kEveryRound,   ///< t-dependent every slot: group-bound scan per select.
  kIncremental,  ///< changes only on observation or plateau expiry.
};

/// Sentinel valid_until: the cached value never expires on its own; only
/// dirty-marking (an observation touching the arm) invalidates it.
inline constexpr TimeSlot kIndexValidForever =
    std::numeric_limits<TimeSlot>::max();

/// Arms per kEveryRound bound group (the last group may be shorter).
inline constexpr std::size_t kIndexGroupSize = 32;

/// One incremental refresh: the new index value and the last slot it stays
/// valid for, assuming the arm's statistics do not change in between.
struct IndexRefresh {
  double value;
  TimeSlot valid_until;
};

class SingleIndexPolicy : public SinglePlayPolicy {
 public:
  void reset(const Graph& graph) final;
  [[nodiscard]] ArmId select(TimeSlot t) final;

  /// The index value of arm i at slot t (+inf forces exploration). This is
  /// the from-scratch reference; select() reads the cached array instead.
  [[nodiscard]] virtual double index(ArmId i, TimeSlot t) const = 0;

  /// Total uniform_int tie-break draws consumed by select() since the last
  /// reset() — part of the reproducibility contract, pinned by goldens.
  [[nodiscard]] std::uint64_t tie_break_draws() const noexcept {
    return tie_break_draws_;
  }

  /// Bound groups whose exact indices select() evaluated since the last
  /// reset() (kEveryRound; a full evaluation counts every group).
  [[nodiscard]] std::uint64_t groups_evaluated() const noexcept {
    return groups_evaluated_;
  }

  /// The per-arm index array as of the last select() (diagnostics/tests).
  /// Groups that select skipped are filled in here, at the last select's
  /// slot and from the statistics current at the call — the same values
  /// unless one of their arms was observed since.
  [[nodiscard]] const std::vector<double>& cached_indices() const;

  /// Test/bench hook: drops every cached value so the next select() does a
  /// full from-scratch rebuild (every index evaluated, no group skipped).
  void invalidate_index_cache() noexcept { all_dirty_ = true; }

 protected:
  explicit SingleIndexPolicy(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  /// Re-initializes subclass statistics; called by reset() after the arm
  /// count and RNG have been restored.
  virtual void on_reset(const Graph& graph) = 0;

  /// Pre-selection maintenance hook (e.g. sliding-window eviction). Runs
  /// before the cache refresh, so stat changes made here (with their
  /// mark_index_dirty calls) are visible to the same select().
  virtual void before_select(TimeSlot /*t*/) {}

  /// Post-selection refinement hook: maps the argmax-index arm to the arm
  /// actually played (the §IX neighbor-greedy / MaxN heuristics).
  [[nodiscard]] virtual ArmId refine_selection(ArmId best) { return best; }

  /// Which maintenance scheme select() runs; kEveryRound is the safe
  /// default for any t-dependent index.
  [[nodiscard]] virtual IndexRefreshMode refresh_mode() const {
    return IndexRefreshMode::kEveryRound;
  }

  /// Range refresh: writes the index of every arm in [first, last) at slot
  /// t into out[first, last), and returns an upper bound on those arms'
  /// indices at every slot up to `horizon` (≥ t), valid while their
  /// statistics stay unchanged — the kEveryRound skip hook. An unplayed
  /// arm (index +inf) makes the bound +inf; a NaN index may be left out of
  /// it. The default loops over the virtual index() and returns +inf,
  /// which never lets select() skip the range. kEveryRound policies
  /// override it to hoist per-round shared terms and stream the SoA stat
  /// arrays.
  virtual double refresh_indices(TimeSlot t, TimeSlot horizon,
                                 std::size_t first, std::size_t last,
                                 double* out) const;

  /// Incremental refresh of one stale arm (kIncremental policies must
  /// override). The returned value must equal index(i, t) numerically, and
  /// must keep equaling index(i, t') for every t ≤ t' ≤ valid_until absent
  /// observations of the arm.
  [[nodiscard]] virtual IndexRefresh refresh_index(ArmId i, TimeSlot t) const {
    return {index(i, t), t};
  }

  /// Marks arm i's cached index stale. Deduplicated (a flag per arm), so
  /// repeated observe() calls between selects stay O(touched arms).
  void mark_index_dirty(ArmId i) {
    const auto k = static_cast<std::size_t>(i);
    if (all_dirty_ || dirty_flag_[k] != 0) return;
    dirty_flag_[k] = 1;
    dirty_list_.push_back(i);
  }

  /// Marks every arm stale (decay steps, bulk evictions, piecewise resets).
  void mark_all_indices_dirty() noexcept { all_dirty_ = true; }
  [[nodiscard]] bool all_indices_dirty() const noexcept { return all_dirty_; }

  std::size_t num_arms_ = 0;
  Xoshiro256 rng_;

 private:
  [[nodiscard]] std::size_t select_every_round(TimeSlot t, double* cache);
  void refresh_incremental(TimeSlot t, double* cache);
  void rebuild_cache(TimeSlot t, double* cache);
  void schedule_expiry(ArmId i, TimeSlot valid_until);
  void purge_expiry_heap();

  mutable std::vector<double> cached_indices_;
  // kEveryRound group bounds: group_bound_[g] covers every slot up to
  // group_bound_until_[g]; +inf once one of the group's arms is observed.
  // group_skipped_ flags groups whose cached_indices_ entries the last
  // select skipped.
  std::vector<double> group_bound_;
  std::vector<TimeSlot> group_bound_until_;
  mutable std::vector<std::uint8_t> group_skipped_;
  std::vector<std::uint8_t> dirty_flag_;  // per-arm "already in dirty_list_"
  std::vector<ArmId> dirty_list_;
  std::vector<TimeSlot> valid_until_;     // authoritative per-arm expiry
  // Lazy-deletion min-heap of (valid_until, arm). Purged when it outgrows
  // 4K + 64 entries. sched_vu_ tracks each arm's earliest live entry
  // (kIndexValidForever = none): a refresh only pushes when no entry pops
  // at or before the new expiry, and an entry popping early renews itself
  // — so an arm refreshed every slot with a growing plateau costs zero
  // heap traffic instead of one push per slot.
  std::vector<std::pair<TimeSlot, ArmId>> expiry_heap_;
  std::vector<TimeSlot> sched_vu_;
  // Arms whose refresh expires at the refresh slot itself (the "hot"
  // regime, valid_until <= t): they would pop from the heap on the very
  // next select anyway, so they bypass it and re-dirty directly —
  // bounded at one entry per arm per refresh.
  std::vector<ArmId> hot_list_;
  bool all_dirty_ = true;
  TimeSlot last_select_t_ = std::numeric_limits<TimeSlot>::min();
  std::uint64_t tie_break_draws_ = 0;
  std::uint64_t groups_evaluated_ = 0;
  std::uint64_t seed_;
};

class ArmStatIndexPolicy : public SingleIndexPolicy {
 public:
  /// Batched update: folds every revealed (arm, value) pair into the stats
  /// table in one pass and dirty-marks exactly the touched arms.
  /// Side-observation learners inherit this as-is.
  void observe(ArmId played, TimeSlot t, ObservationSpan observations) override;

  /// Observation count O_i (for tests / diagnostics); bounds-checked.
  [[nodiscard]] std::int64_t observation_count(ArmId i) const {
    return stats_.count(i);
  }
  /// Empirical mean X̄_i; bounds-checked.
  [[nodiscard]] double empirical_mean(ArmId i) const { return stats_.mean(i); }

 protected:
  using SingleIndexPolicy::SingleIndexPolicy;

  void on_reset(const Graph& graph) override;

  /// Folds one observation into the stats and marks the arm stale — the
  /// shared primitive for the played-only observe() overrides.
  void absorb(ArmId arm, double value) {
    stats_.add(arm, value);
    mark_index_dirty(arm);
  }

  /// The empirically best observed arm within N_best (always contains
  /// `best` itself) — the shared MaxN/neighbor-greedy refinement.
  [[nodiscard]] ArmId best_empirical_in_neighborhood(const Graph& graph,
                                                     ArmId best) const;

  ArmStatsTable stats_;
};

}  // namespace ncb
