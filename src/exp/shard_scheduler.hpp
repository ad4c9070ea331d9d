// The replication driver: seeds, runs and merges a job's independent
// replications, the mean over which is every regret curve of Figs. 3–6.
//
// Replication r always runs the same recipe (run_replication): environment
// seed derive_seed_at(master_seed, 2r), policy seed derive_seed_at(
// master_seed, 2r + 1), an Environment over the shared instance, and the
// scenario's runner. Replications are grouped into "shards", contiguous
// blocks that each run as one thread-pool task. Sharding is horizon-aware:
// long-horizon jobs get shards of one replication (maximum parallelism),
// short jobs get bigger shards so per-task overhead stays negligible. Shard
// results merge in shard-index order, so a job's output is bit-identical
// for any thread count — including no pool at all — under a fixed shard
// plan.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

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
    return per_slot_regret.means();
  }
  /// Mean accumulated regret series — Fig. 3(b).
  [[nodiscard]] std::vector<double> accumulated_regret() const {
    return cumulative_regret.means();
  }
  /// Mean average regret R_t/t series (a smoother zero-regret diagnostic).
  [[nodiscard]] std::vector<double> average_regret() const;
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

/// Runs one named single-play policy on the config's instance.
[[nodiscard]] ReplicatedResult run_single_experiment(
    const ExperimentConfig& config, const std::string& policy_name,
    Scenario scenario, ThreadPool* pool = nullptr);

/// Runs one named combinatorial policy on the config's instance.
[[nodiscard]] ReplicatedResult run_combinatorial_experiment(
    const ExperimentConfig& config, const std::string& policy_name,
    Scenario scenario, ThreadPool* pool = nullptr);

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

/// Runs `fn(shard)` for every shard of the plan: bulk-enqueued on `pool`
/// (one lock, one wake-up) when non-null, inline in shard order otherwise.
/// Blocks until all shards finished; rethrows the first shard exception.
void for_each_shard(const ShardPlan& plan, ThreadPool* pool,
                    const std::function<void(std::size_t)>& fn);

/// Runs replication `r` of a job seeded by `master_seed`: an Environment
/// over `instance` seeded with derive_seed_at(master_seed, 2r), a policy
/// built with seed derive_seed_at(master_seed, 2r + 1), and
/// run_combinatorial (over `family`, with `make_combinatorial`) or
/// run_single_play (with `make_single`) as `scenario` requires. Only the
/// factory the scenario needs has to be set. Thread-safe across distinct r.
[[nodiscard]] RunResult run_replication(
    std::size_t r, std::uint64_t master_seed,
    const std::shared_ptr<const BanditInstance>& instance, Scenario scenario,
    const SinglePolicyFactory& make_single,
    const CombinatorialPolicyFactory& make_combinatorial,
    const FeasibleSet* family, const RunnerOptions& runner);

/// Runs `options.replications` independent single-play simulations of the
/// instance and aggregates their regret series. Replications are split per
/// `plan_shards(options.replications, options.runner.horizon)`; each shard
/// aggregates its replications in order and shard aggregates merge in
/// shard-index order, so the result does not depend on options.pool (or
/// its thread count) at all. Throws std::invalid_argument when
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

}  // namespace ncb::exp
