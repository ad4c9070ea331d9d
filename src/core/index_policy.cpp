#include "core/index_policy.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/argmax.hpp"

namespace ncb {
namespace {

/// Min-heap ordering on (valid_until, arm): the earliest expiry at front.
struct LaterExpiry {
  bool operator()(const std::pair<TimeSlot, ArmId>& a,
                  const std::pair<TimeSlot, ArmId>& b) const noexcept {
    return a.first > b.first;
  }
};

/// Look-ahead slot t' = t + t/512 a group bound computed at t stays valid
/// for. Longer look-aheads loosen the bounds until few groups can be
/// skipped; shorter ones recompute them more often.
TimeSlot bound_horizon(TimeSlot t) {
  const TimeSlot step = std::max<TimeSlot>(t / 512, 0);
  return t > std::numeric_limits<TimeSlot>::max() - step
             ? std::numeric_limits<TimeSlot>::max()
             : t + step;
}

}  // namespace

void SingleIndexPolicy::reset(const Graph& graph) {
  num_arms_ = graph.num_vertices();
  rng_ = Xoshiro256(seed_);
  cached_indices_.assign(num_arms_, 0.0);
  dirty_flag_.assign(num_arms_, 0);
  dirty_list_.clear();
  valid_until_.assign(num_arms_, 0);
  const std::size_t groups =
      (num_arms_ + kIndexGroupSize - 1) / kIndexGroupSize;
  group_bound_.assign(groups, std::numeric_limits<double>::infinity());
  group_bound_until_.assign(groups, 0);
  group_skipped_.assign(groups, 0);
  expiry_heap_.clear();
  sched_vu_.assign(num_arms_, kIndexValidForever);
  hot_list_.clear();
  all_dirty_ = true;
  last_select_t_ = std::numeric_limits<TimeSlot>::min();
  tie_break_draws_ = 0;
  groups_evaluated_ = 0;
  on_reset(graph);
}

ArmId SingleIndexPolicy::select(TimeSlot t) {
  if (num_arms_ == 0) {
    throw std::logic_error(name() + ": reset() not called");
  }
  before_select(t);
  double* cache = cached_indices_.data();
  std::size_t best = 0;
  if (refresh_mode() == IndexRefreshMode::kEveryRound) {
    best = select_every_round(t, cache);
  } else {
    refresh_incremental(t, cache);
    best = reservoir_argmax(cache, num_arms_, rng_, &tie_break_draws_);
  }
  last_select_t_ = t;
  return refine_selection(static_cast<ArmId>(best));
}

const std::vector<double>& SingleIndexPolicy::cached_indices() const {
  for (std::size_t g = 0; g < group_skipped_.size(); ++g) {
    if (group_skipped_[g] == 0) continue;
    const std::size_t first = g * kIndexGroupSize;
    (void)refresh_indices(last_select_t_, last_select_t_, first,
                          std::min(first + kIndexGroupSize, num_arms_),
                          cached_indices_.data());
    group_skipped_[g] = 0;
  }
  return cached_indices_;
}

double SingleIndexPolicy::refresh_indices(TimeSlot t, TimeSlot /*horizon*/,
                                          std::size_t first, std::size_t last,
                                          double* out) const {
  for (std::size_t k = first; k < last; ++k) {
    out[k] = index(static_cast<ArmId>(k), t);
  }
  return std::numeric_limits<double>::infinity();
}

std::size_t SingleIndexPolicy::select_every_round(TimeSlot t, double* cache) {
  // After reset() or invalidate_index_cache() every group is evaluated.
  const bool full = all_dirty_;
  all_dirty_ = false;
  for (const ArmId i : dirty_list_) {
    const auto k = static_cast<std::size_t>(i);
    // An observed arm's old bound no longer holds: never skip its group
    // until an evaluation computes a new one.
    group_bound_[k / kIndexGroupSize] = std::numeric_limits<double>::infinity();
    dirty_flag_[k] = 0;
  }
  dirty_list_.clear();
  const TimeSlot horizon = bound_horizon(t);
  ArgmaxState state;
  for (std::size_t g = 0; g < group_bound_.size(); ++g) {
    // Strictly below: no index in the group can move or tie the maximum.
    if (!full && t <= group_bound_until_[g] &&
        group_bound_[g] < state.best_score) {
      group_skipped_[g] = 1;
      continue;
    }
    const std::size_t first = g * kIndexGroupSize;
    const std::size_t last = std::min(first + kIndexGroupSize, num_arms_);
    group_bound_[g] = refresh_indices(t, horizon, first, last, cache);
    group_bound_until_[g] = horizon;
    group_skipped_[g] = 0;
    ++groups_evaluated_;
    // As in reservoir_argmax: only a group that can reach the maximum
    // needs the exact loop.
    if (block_max(cache, first, last) >= state.best_score) {
      reservoir_scan(cache, first, last, state, rng_);
    }
  }
  tie_break_draws_ += state.draws;
  return state.best;
}

void SingleIndexPolicy::refresh_incremental(TimeSlot t, double* cache) {
  // Time moving backwards (piecewise scenarios replaying, tests probing
  // arbitrary slots) invalidates every valid_until promise; fall back to a
  // full rebuild rather than trusting stale plateaus.
  if (all_dirty_ || t < last_select_t_) {
    rebuild_cache(t, cache);
    return;
  }
  // Hot arms expired the moment they were refreshed; re-dirty them without
  // a heap round-trip (dedup'd against observe()'s own markings).
  for (const ArmId i : hot_list_) mark_index_dirty(i);
  hot_list_.clear();
  // Expired promises become dirty. A popped entry whose arm is still
  // valid (its promise was extended after the push) renews itself at the
  // authoritative expiry instead of triggering a refresh.
  while (!expiry_heap_.empty() && expiry_heap_.front().first < t) {
    const auto [vu, arm] = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
    expiry_heap_.pop_back();
    const auto k = static_cast<std::size_t>(arm);
    if (vu == sched_vu_[k]) sched_vu_[k] = kIndexValidForever;
    if (valid_until_[k] == kIndexValidForever) continue;
    if (valid_until_[k] < t) {
      mark_index_dirty(arm);
    } else {
      schedule_expiry(arm, valid_until_[k]);
    }
  }
  for (const ArmId i : dirty_list_) {
    const auto k = static_cast<std::size_t>(i);
    const IndexRefresh r = refresh_index(i, t);
    cache[k] = r.value;
    valid_until_[k] = r.valid_until;
    if (r.valid_until == kIndexValidForever) {
      // Never expires on its own; only an observation re-dirties it.
    } else if (r.valid_until <= t) {
      hot_list_.push_back(i);
    } else {
      schedule_expiry(i, r.valid_until);
    }
    dirty_flag_[k] = 0;
  }
  dirty_list_.clear();
  if (expiry_heap_.size() > 4 * num_arms_ + 64) purge_expiry_heap();
}

void SingleIndexPolicy::rebuild_cache(TimeSlot t, double* cache) {
  std::fill(dirty_flag_.begin(), dirty_flag_.end(), std::uint8_t{0});
  dirty_list_.clear();
  expiry_heap_.clear();
  std::fill(sched_vu_.begin(), sched_vu_.end(), kIndexValidForever);
  hot_list_.clear();
  for (std::size_t k = 0; k < num_arms_; ++k) {
    const IndexRefresh r = refresh_index(static_cast<ArmId>(k), t);
    cache[k] = r.value;
    valid_until_[k] = r.valid_until;
    if (r.valid_until == kIndexValidForever) {
    } else if (r.valid_until <= t) {
      hot_list_.push_back(static_cast<ArmId>(k));
    } else {
      expiry_heap_.emplace_back(r.valid_until, static_cast<ArmId>(k));
      sched_vu_[k] = r.valid_until;
    }
  }
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
  all_dirty_ = false;
}

void SingleIndexPolicy::schedule_expiry(ArmId i, TimeSlot valid_until) {
  // An existing entry popping at or before the new expiry already
  // guarantees a timely wake-up (it renews itself if it pops early).
  const auto k = static_cast<std::size_t>(i);
  if (sched_vu_[k] <= valid_until) return;
  expiry_heap_.emplace_back(valid_until, i);
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
  sched_vu_[k] = valid_until;
}

void SingleIndexPolicy::purge_expiry_heap() {
  // Drops every superseded entry in one pass by rebuilding from the
  // authoritative per-arm expiries. Hot-listed arms (valid_until == the
  // last refresh slot) get a redundant entry here; it pops on the next
  // select and its dirty marking dedups against the hot list's own.
  expiry_heap_.clear();
  for (std::size_t k = 0; k < num_arms_; ++k) {
    if (valid_until_[k] != kIndexValidForever) {
      expiry_heap_.emplace_back(valid_until_[k], static_cast<ArmId>(k));
      sched_vu_[k] = valid_until_[k];
    } else {
      sched_vu_[k] = kIndexValidForever;
    }
  }
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
}

void ArmStatIndexPolicy::on_reset(const Graph& /*graph*/) {
  stats_.reset(num_arms_);
}

void ArmStatIndexPolicy::observe(ArmId /*played*/, TimeSlot /*t*/,
                                 ObservationSpan observations) {
  for (const Observation& obs : observations) {
    absorb(obs.arm, obs.value);
  }
}

ArmId ArmStatIndexPolicy::best_empirical_in_neighborhood(const Graph& graph,
                                                         ArmId best) const {
  const std::int64_t* counts = stats_.counts();
  const double* means = stats_.means();
  ArmId play = best;
  double play_mean = means[static_cast<std::size_t>(best)];
  for (const ArmId j : graph.closed_neighborhood(best)) {
    const auto k = static_cast<std::size_t>(j);
    if (counts[k] > 0 && means[k] > play_mean) {
      play = j;
      play_mean = means[k];
    }
  }
  return play;
}

}  // namespace ncb
