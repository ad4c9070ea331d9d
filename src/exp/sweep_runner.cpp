#include "exp/sweep_runner.hpp"

#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/policy_registry.hpp"
#include "util/timer.hpp"

namespace ncb::exp {

namespace {

/// The instance-defining coordinates of a config (see InstanceCache docs).
/// p enters via its bit pattern so the key is exact, not formatted.
std::string instance_key(const ExperimentConfig& config, bool combinatorial) {
  std::uint64_t p_bits = 0;
  static_assert(sizeof p_bits == sizeof config.edge_probability);
  std::memcpy(&p_bits, &config.edge_probability, sizeof p_bits);
  std::ostringstream key;
  key << family_token(config.graph_family) << ':' << config.num_arms << ':'
      << p_bits << ':' << config.family_param << ':' << config.seed;
  if (combinatorial) {
    key << ":M" << config.strategy_size
        << (config.exact_size_strategies ? "e" : "");
  }
  return key.str();
}

}  // namespace

const InstanceCache::Entry& InstanceCache::get(const ExperimentConfig& config,
                                               bool combinatorial) {
  std::string key = instance_key(config, combinatorial);
  if (key == key_ && entry_.instance != nullptr) {
    ++hits_;
    return entry_;
  }
  ++misses_;
  entry_.instance = std::make_shared<const BanditInstance>(
      build_instance(config));
  entry_.family = combinatorial
                      ? build_family(config, entry_.instance->graph())
                      : nullptr;
  key_ = std::move(key);
  return entry_;
}

JobOutcome run_sweep_job(const SweepJob& job, std::size_t checkpoints,
                         const SweepRunOptions& options) {
  Timer timer;
  const ExperimentConfig& config = job.config;
  InstanceCache local_cache;
  InstanceCache& cache =
      options.instance_cache ? *options.instance_cache : local_cache;
  const InstanceCache::Entry& built =
      cache.get(config, is_combinatorial(job.scenario));

  const SinglePolicyFactory make_single = [&](std::uint64_t seed) {
    return PolicyRegistry::instance().make_single_play(
        job.policy, config.horizon, seed);
  };
  const CombinatorialPolicyFactory make_combinatorial =
      [&](std::uint64_t seed) {
        return PolicyRegistry::instance().make_combinatorial(
            job.policy, built.family, seed);
      };

  const ShardPlan plan =
      plan_shards(config.replications, config.horizon, options.shard_size);
  JobOutcome outcome;
  outcome.job = job;
  // A cancelled shard folds nothing; the job is then reported incomplete
  // and dropped, so partial aggregates never reach an emitter.
  outcome.aggregate = run_replications(
      plan, config.seed, built.instance, built.family.get(), job.scenario,
      make_single, make_combinatorial, {.horizon = config.horizon},
      checkpoint_grid(config.horizon, checkpoints), options.pool,
      options.should_stop);
  outcome.shards = plan.num_shards();
  outcome.shard_size = plan.shard_size;
  outcome.complete = outcome.aggregate.replications() == config.replications;
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepRunOptions& options,
                      const std::set<std::string>& skip_keys) {
  SweepRunOptions job_options = options;
  if (job_options.shard_size == 0) job_options.shard_size = spec.shard_size;
  InstanceCache sweep_cache;
  if (job_options.instance_cache == nullptr) {
    job_options.instance_cache = &sweep_cache;
  }

  SweepResult result;
  for (const SweepJob& job : spec.expand()) {
    if (skip_keys.count(job.key)) {
      ++result.skipped;
      continue;
    }
    if (result.interrupted ||
        (options.should_stop && options.should_stop())) {
      result.interrupted = true;
      ++result.pending;
      continue;
    }
    if (options.max_jobs != 0 && result.outcomes.size() >= options.max_jobs) {
      ++result.pending;
      continue;
    }
    JobOutcome outcome = run_sweep_job(job, spec.checkpoints, job_options);
    if (!outcome.complete) {
      result.interrupted = true;
      ++result.pending;
      continue;
    }
    result.policy_seconds[job.policy].add(outcome.seconds);
    if (options.on_job) options.on_job(outcome);
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace ncb::exp

namespace ncb {

namespace {

ReplicatedResult run_experiment(const ExperimentConfig& config,
                                const std::string& policy_name,
                                Scenario scenario, ThreadPool* pool,
                                bool combinatorial) {
  if (is_combinatorial(scenario) != combinatorial) {
    throw std::invalid_argument(
        std::string(combinatorial ? "run_combinatorial" : "run_single") +
        "_experiment: wrong play mode " + scenario_name(scenario));
  }
  exp::SweepJob job;
  job.policy = policy_name;
  job.scenario = scenario;
  job.config = config;
  exp::SweepRunOptions options;
  options.pool = pool;
  return exp::to_replicated(
      exp::run_sweep_job(job, /*checkpoints=*/0, options).aggregate,
      scenario);
}

}  // namespace

ReplicatedResult run_single_experiment(const ExperimentConfig& config,
                                       const std::string& policy_name,
                                       Scenario scenario, ThreadPool* pool) {
  return run_experiment(config, policy_name, scenario, pool, false);
}

ReplicatedResult run_combinatorial_experiment(const ExperimentConfig& config,
                                              const std::string& policy_name,
                                              Scenario scenario,
                                              ThreadPool* pool) {
  return run_experiment(config, policy_name, scenario, pool, true);
}

}  // namespace ncb
