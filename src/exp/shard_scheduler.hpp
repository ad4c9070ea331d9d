// The replication driver: seeds, runs and reduces a job's independent
// replications, the mean over which is every regret curve of Figs. 3–6.
//
// Replication r runs with environment seed derive_seed_at(master_seed, 2r)
// and policy seed derive_seed_at(master_seed, 2r + 1) over the shared
// instance. Replications are grouped into "shards", contiguous blocks that
// each run as one thread-pool task; long horizons get one-replication
// shards, short ones bigger shards so per-task overhead stays negligible.
// The one reduction, run_replications, folds every run's samples into one
// JobAggregate strictly in global replication order, so a job's output is
// bit-identical for any thread count (or no pool), any shard plan, and
// either entry point: run_sweep_job and run_sharded_* agree bit for bit.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "exp/aggregate.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "util/running_stat.hpp"

namespace ncb {

/// Aggregated series over replications. Index i holds stats for slot i+1.
struct ReplicatedResult {
  Scenario scenario = Scenario::kSso;
  std::size_t replications = 0;
  SeriesStat per_slot_regret;
  SeriesStat cumulative_regret;
  SeriesStat per_slot_pseudo_regret;
  RunningStat final_cumulative;   ///< Cumulative regret at the horizon.
  double optimal_per_slot = 0.0;

  /// Mean expected (per-slot) regret series — what Figs. 3(a), 4, 5, 6 plot.
  [[nodiscard]] std::vector<double> expected_regret() const {
    return per_slot_pseudo_regret.means();
  }
  /// Mean accumulated regret series — Fig. 3(b).
  [[nodiscard]] std::vector<double> accumulated_regret() const {
    return cumulative_regret.means();
  }
  /// Mean average regret R_t/t series (a smoother zero-regret diagnostic).
  [[nodiscard]] std::vector<double> average_regret() const {
    std::vector<double> avg = cumulative_regret.means();
    for (std::size_t i = 0; i < avg.size(); ++i) {
      avg[i] /= static_cast<double>(i + 1);
    }
    return avg;
  }
};

/// Creates a fresh policy for one replication; `seed` is that replication's
/// policy seed.
using SinglePolicyFactory =
    std::function<std::unique_ptr<SinglePlayPolicy>(std::uint64_t seed)>;
using CombinatorialPolicyFactory =
    std::function<std::unique_ptr<CombinatorialPolicy>(std::uint64_t seed)>;

struct ReplicationOptions {
  std::size_t replications = 20;
  std::uint64_t master_seed = 20170605;  // ICDCS'17
  RunnerOptions runner;
  /// Worker pool to parallelize over; nullptr runs sequentially.
  ThreadPool* pool = nullptr;
};

}  // namespace ncb

namespace ncb::exp {

/// Work target per shard in simulated slots (shard replications ×
/// horizon). 16k slots splits a fig3-sized job (n = 10^4) into
/// one-replication shards while keeping tiny-horizon shards chunky.
inline constexpr std::size_t kDefaultSlotsPerShard = 16384;

/// A partition of `replications` into contiguous shards of `shard_size`
/// (the last shard may be short).
struct ShardPlan {
  std::size_t replications = 0;
  std::size_t shard_size = 1;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shard_size == 0 ? 0
                           : (replications + shard_size - 1) / shard_size;
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t shard) const noexcept {
    return shard * shard_size;
  }
  [[nodiscard]] std::size_t shard_end(std::size_t shard) const noexcept {
    const std::size_t end = (shard + 1) * shard_size;
    return end < replications ? end : replications;
  }
};

/// Horizon-aware shard sizing: shard_size ≈ kDefaultSlotsPerShard / horizon,
/// clamped to [1, replications]. A non-zero `shard_size_override` wins
/// outright.
[[nodiscard]] ShardPlan plan_shards(std::size_t replications,
                                    TimeSlot horizon,
                                    std::size_t shard_size_override = 0);

/// The one replication reduction. Runs replications [0, plan.replications)
/// of a job seeded by `master_seed`, one pool task per shard (inline in
/// shard order when `pool` is null), through run_combinatorial over
/// `family` or run_single_play as `scenario` requires; only that play
/// mode's factory has to be set. Each run is sampled at `grid` as it
/// finishes, then dropped, and the samples fold into one JobAggregate
/// strictly in global replication order, eagerly: a shard that finishes
/// ahead of its turn keeps its samples only until every earlier shard has
/// been folded. `should_stop` is checked before each shard; a skipped
/// shard and every shard after it fold nothing, leaving the aggregate
/// short of plan.replications. Rethrows the first shard exception.
[[nodiscard]] JobAggregate run_replications(
    const ShardPlan& plan, std::uint64_t master_seed,
    const std::shared_ptr<const BanditInstance>& instance,
    const FeasibleSet* family, Scenario scenario,
    const SinglePolicyFactory& make_single,
    const CombinatorialPolicyFactory& make_combinatorial,
    const RunnerOptions& runner, std::vector<TimeSlot> grid, ThreadPool* pool,
    const std::function<bool()>& should_stop = {});

/// Runs `options.replications` independent single-play simulations of the
/// instance through run_replications over the dense grid 1..horizon, so the
/// result equals run_sweep_job's dense aggregate of the same job bit for
/// bit, whatever options.pool is. Throws std::invalid_argument when
/// `make_policy` is null or `scenario` is combinatorial.
[[nodiscard]] ReplicatedResult run_sharded_single(
    const SinglePolicyFactory& make_policy, const BanditInstance& instance,
    Scenario scenario, const ReplicationOptions& options);

/// Combinatorial counterpart; `family` must be built over the instance graph
/// and `scenario` must be combinatorial.
[[nodiscard]] ReplicatedResult run_sharded_combinatorial(
    const CombinatorialPolicyFactory& make_policy,
    const BanditInstance& instance, const FeasibleSet& family,
    Scenario scenario, const ReplicationOptions& options);

/// The dense aggregate of a job as a ReplicatedResult (series index i is
/// slot i + 1).
[[nodiscard]] ReplicatedResult to_replicated(const JobAggregate& aggregate,
                                             Scenario scenario);

}  // namespace ncb::exp
