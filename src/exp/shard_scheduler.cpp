#include "exp/shard_scheduler.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "util/rng.hpp"

namespace ncb {

std::vector<double> ReplicatedResult::average_regret() const {
  std::vector<double> avg = cumulative_regret.means();
  for (std::size_t i = 0; i < avg.size(); ++i) {
    avg[i] /= static_cast<double>(i + 1);
  }
  return avg;
}

namespace {

ReplicationOptions experiment_options(const ExperimentConfig& config,
                                      ThreadPool* pool) {
  ReplicationOptions options;
  options.replications = config.replications;
  options.master_seed = config.seed;
  options.runner.horizon = config.horizon;
  options.pool = pool;
  return options;
}

}  // namespace

ReplicatedResult run_single_experiment(const ExperimentConfig& config,
                                       const std::string& policy_name,
                                       Scenario scenario, ThreadPool* pool) {
  return exp::run_sharded_single(
      [&](std::uint64_t seed) {
        return PolicyRegistry::instance().make_single_play(
            policy_name, config.horizon, seed);
      },
      build_instance(config), scenario, experiment_options(config, pool));
}

ReplicatedResult run_combinatorial_experiment(const ExperimentConfig& config,
                                              const std::string& policy_name,
                                              Scenario scenario,
                                              ThreadPool* pool) {
  const BanditInstance instance = build_instance(config);
  const auto family = build_family(config, instance.graph());
  return exp::run_sharded_combinatorial(
      [&](std::uint64_t seed) {
        return PolicyRegistry::instance().make_combinatorial(
            policy_name, family, seed);
      },
      instance, *family, scenario, experiment_options(config, pool));
}

}  // namespace ncb

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

RunResult run_replication(std::size_t r, std::uint64_t master_seed,
                          const std::shared_ptr<const BanditInstance>& instance,
                          Scenario scenario,
                          const SinglePolicyFactory& make_single,
                          const CombinatorialPolicyFactory& make_combinatorial,
                          const FeasibleSet* family,
                          const RunnerOptions& runner) {
  Environment env(instance, derive_seed_at(master_seed, 2 * r));
  const std::uint64_t policy_seed = derive_seed_at(master_seed, 2 * r + 1);
  if (is_combinatorial(scenario)) {
    const auto policy = make_combinatorial(policy_seed);
    return run_combinatorial(*policy, *family, env, scenario, runner);
  }
  const auto policy = make_single(policy_seed);
  return run_single_play(*policy, env, scenario, runner);
}

namespace {

void merge_part(ReplicatedResult& result, const ReplicatedResult& part) {
  if (part.replications == 0) return;
  result.per_slot_regret.merge(part.per_slot_regret);
  result.cumulative_regret.merge(part.cumulative_regret);
  result.per_slot_pseudo_regret.merge(part.per_slot_pseudo_regret);
  result.final_cumulative.merge(part.final_cumulative);
  result.optimal_per_slot = part.optimal_per_slot;
  result.replications += part.replications;
}

/// Shared shard→result reduction over run_replication. Shards merge
/// *eagerly* but strictly in shard-index order (a completed out-of-order
/// shard parks in `pending` until its turn), so the result is bit-identical
/// to a sequential run while peak memory stays at one accumulator plus the
/// few shards that finished ahead of their turn — not all shards at once.
ReplicatedResult run_sharded(
    const SinglePolicyFactory& make_single,
    const CombinatorialPolicyFactory& make_combinatorial,
    const BanditInstance& instance, const FeasibleSet* family,
    Scenario scenario, const ReplicationOptions& options) {
  if (is_combinatorial(scenario) ? !make_combinatorial : !make_single) {
    throw std::invalid_argument("run_sharded: no policy factory for " +
                                scenario_name(scenario));
  }
  // One shared copy up front; replications then share it instead of each
  // deep-copying the CSR graph into their Environment.
  const auto shared = std::make_shared<const BanditInstance>(instance);
  const ShardPlan plan =
      plan_shards(options.replications, options.runner.horizon);
  std::mutex merge_mutex;
  std::map<std::size_t, ReplicatedResult> pending;
  std::size_t next_to_merge = 0;
  ReplicatedResult result;
  result.scenario = scenario;

  for_each_shard(plan, options.pool, [&](std::size_t s) {
    ReplicatedResult part;
    part.scenario = scenario;
    for (std::size_t r = plan.shard_begin(s); r < plan.shard_end(s); ++r) {
      const RunResult run =
          run_replication(r, options.master_seed, shared, scenario,
                          make_single, make_combinatorial, family,
                          options.runner);
      part.per_slot_regret.add_series(run.per_slot_regret);
      part.cumulative_regret.add_series(run.cumulative_regret);
      part.per_slot_pseudo_regret.add_series(run.per_slot_pseudo_regret);
      part.final_cumulative.add(run.cumulative_regret.back());
      part.optimal_per_slot = run.optimal_per_slot;
      ++part.replications;
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    pending.emplace(s, std::move(part));
    for (auto it = pending.find(next_to_merge); it != pending.end();
         it = pending.find(next_to_merge)) {
      merge_part(result, it->second);
      pending.erase(it);
      ++next_to_merge;
    }
  });
  // for_each_shard blocked until every shard ran, so all shards merged.
  return result;
}

}  // namespace

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
