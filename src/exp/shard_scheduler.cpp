#include "exp/shard_scheduler.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ncb::exp {

ShardPlan plan_shards(std::size_t replications, TimeSlot horizon,
                      std::size_t shard_size_override) {
  if (horizon <= 0) {
    throw std::invalid_argument("plan_shards: horizon must be positive");
  }
  ShardPlan plan;
  plan.replications = replications;
  if (shard_size_override > 0) {
    plan.shard_size = shard_size_override;
  } else {
    const std::size_t by_horizon =
        kDefaultSlotsPerShard / static_cast<std::size_t>(horizon);
    plan.shard_size = by_horizon == 0 ? 1 : by_horizon;
  }
  if (replications > 0 && plan.shard_size > replications) {
    plan.shard_size = replications;
  }
  return plan;
}

namespace {

/// Runs `fn(shard)` for every shard of the plan: bulk-enqueued on `pool`
/// (one lock, one wake-up) when non-null, inline in shard order otherwise.
/// Blocks until all shards finished; rethrows the first shard exception.
void for_each_shard(const ShardPlan& plan, ThreadPool* pool,
                    const std::function<void(std::size_t)>& fn) {
  const std::size_t shards = plan.num_shards();
  if (shards == 0) return;
  if (pool) {
    pool->submit_bulk(0, shards, fn);
    pool->wait_idle();
  } else {
    for (std::size_t s = 0; s < shards; ++s) fn(s);
  }
}

ReplicatedResult run_sharded(const SinglePolicyFactory& make_single,
                             const CombinatorialPolicyFactory& make_combinatorial,
                             const BanditInstance& instance,
                             const FeasibleSet* family, Scenario scenario,
                             const ReplicationOptions& options) {
  const TimeSlot horizon = options.runner.horizon;
  // One shared copy up front, so replications do not each deep-copy the
  // CSR graph; runs that record no series fold over an empty grid.
  return to_replicated(
      run_replications(
          plan_shards(options.replications, horizon), options.master_seed,
          std::make_shared<const BanditInstance>(instance), family, scenario,
          make_single, make_combinatorial, options.runner,
          options.runner.record_series ? checkpoint_grid(horizon, 0)
                                       : std::vector<TimeSlot>{},
          options.pool),
      scenario);
}

}  // namespace

JobAggregate run_replications(
    const ShardPlan& plan, std::uint64_t master_seed,
    const std::shared_ptr<const BanditInstance>& instance,
    const FeasibleSet* family, Scenario scenario,
    const SinglePolicyFactory& make_single,
    const CombinatorialPolicyFactory& make_combinatorial,
    const RunnerOptions& runner, std::vector<TimeSlot> grid, ThreadPool* pool,
    const std::function<bool()>& should_stop) {
  if (is_combinatorial(scenario) ? !make_combinatorial : !make_single) {
    throw std::invalid_argument("run_replications: no policy factory for " +
                                scenario_name(scenario));
  }
  // fold_mutex guards the aggregate's accumulators, parked and
  // next_to_fold. parked[s] holds shard s's samples from the moment it
  // finishes until it is folded; shards fold in index order, so at most the
  // shards that finished ahead of their turn are ever parked.
  JobAggregate aggregate(std::move(grid));
  std::mutex fold_mutex;
  std::vector<std::vector<RepSample>> parked(plan.num_shards());
  std::size_t next_to_fold = 0;

  for_each_shard(plan, pool, [&](std::size_t s) {
    if (should_stop && should_stop()) return;
    std::vector<RepSample> samples;
    samples.reserve(plan.shard_end(s) - plan.shard_begin(s));
    for (std::size_t r = plan.shard_begin(s); r < plan.shard_end(s); ++r) {
      Environment env(instance, derive_seed_at(master_seed, 2 * r));
      const std::uint64_t policy_seed = derive_seed_at(master_seed, 2 * r + 1);
      const RunResult run =
          is_combinatorial(scenario)
              ? run_combinatorial(*make_combinatorial(policy_seed), *family,
                                  env, scenario, runner)
              : run_single_play(*make_single(policy_seed), env, scenario,
                                runner);
      samples.push_back(sample_run(run, aggregate.grid()));
    }
    const std::lock_guard<std::mutex> lock(fold_mutex);
    parked[s] = std::move(samples);
    // A non-empty shard always has samples, so an empty slot means "not
    // finished yet" (or skipped, which stops the fold for good).
    for (; next_to_fold < parked.size() && !parked[next_to_fold].empty();
         ++next_to_fold) {
      for (const RepSample& rep : parked[next_to_fold]) aggregate.add_rep(rep);
      std::vector<RepSample>().swap(parked[next_to_fold]);
    }
  });
  return aggregate;
}

ReplicatedResult to_replicated(const JobAggregate& aggregate,
                               Scenario scenario) {
  ReplicatedResult result;
  result.scenario = scenario;
  result.replications = aggregate.replications();
  result.per_slot_regret = aggregate.per_slot_regret();
  result.cumulative_regret = aggregate.cumulative_regret();
  result.per_slot_pseudo_regret = aggregate.per_slot_pseudo_regret();
  result.final_cumulative = aggregate.final_cumulative();
  result.optimal_per_slot = aggregate.optimal_per_slot();
  return result;
}

ReplicatedResult run_sharded_single(const SinglePolicyFactory& make_policy,
                                    const BanditInstance& instance,
                                    Scenario scenario,
                                    const ReplicationOptions& options) {
  return run_sharded(make_policy, nullptr, instance, nullptr, scenario,
                     options);
}

ReplicatedResult run_sharded_combinatorial(
    const CombinatorialPolicyFactory& make_policy,
    const BanditInstance& instance, const FeasibleSet& family,
    Scenario scenario, const ReplicationOptions& options) {
  return run_sharded(nullptr, make_policy, instance, &family, scenario,
                     options);
}

}  // namespace ncb::exp
