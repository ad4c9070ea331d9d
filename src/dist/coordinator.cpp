#include "dist/coordinator.hpp"

#include <algorithm>

#include "dist/protocol.hpp"
#include "exp/emitters.hpp"
#include "obs/metrics.hpp"

namespace ncb::dist {

DistSweepSummary run_distributed_sweep(const std::vector<exp::SweepJob>& jobs,
                                       const CoordinatorOptions& options,
                                       const std::set<std::string>& skip_keys) {
  DistSweepSummary summary;
  // The skip/max_jobs cut happens in expansion order FIRST — which jobs
  // run must not depend on the scheduling heuristic below, or --max-jobs
  // resume chains would compute different subsets per transport.
  std::vector<net::FarmTask> tasks;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (skip_keys.count(jobs[i].key)) {
      ++summary.skipped;
    } else if (options.max_jobs != 0 && tasks.size() >= options.max_jobs) {
      ++summary.pending;
    } else {
      tasks.push_back({i, jobs[i].key});
    }
  }
  // Largest-first by the --dry-run slot estimate (replications ×
  // horizon). Stable, so equal-cost jobs keep expansion order. Merge is
  // in canonical expansion order regardless, so this affects makespan
  // only, never bytes.
  const auto slots = [&jobs](const net::FarmTask& task) {
    return static_cast<std::uint64_t>(jobs[task.id].config.replications) *
           static_cast<std::uint64_t>(jobs[task.id].config.horizon);
  };
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&slots](const net::FarmTask& a, const net::FarmTask& b) {
                     return slots(a) > slots(b);
                   });

  obs::Counter& m_completed =
      obs::MetricsRegistry::global().counter("dist.jobs.completed");
  net::TaskKind kind;
  kind.noun = "job";
  kind.schema = static_cast<std::uint32_t>(exp::kSweepSchemaVersion);
  kind.metrics_prefix = "dist.jobs";
  kind.assign_type = MsgType::kJobAssign;
  kind.result_type = MsgType::kJobResult;
  kind.encode = [&](const net::FarmTask& task, std::uint32_t attempt) {
    JobAssignMsg assign;
    assign.attempt = attempt;
    assign.checkpoints = options.checkpoints;
    assign.shard_size = options.shard_size;
    assign.job = jobs[task.id];
    return encode_job_assign(assign);
  };
  kind.file_result = [&](const net::FarmTask& task, std::uint32_t attempt,
                         const std::string& payload,
                         const net::PoolWorker& worker) {
    const JobResultMsg result = decode_job_result(payload);
    if (result.key != task.name) return false;
    m_completed.inc();
    DistJobResult done;
    done.job = &jobs[task.id];
    done.record_line = result.record_line;
    done.seconds = result.seconds;
    done.shards = static_cast<std::size_t>(result.shards);
    done.shard_size = static_cast<std::size_t>(result.shard_size);
    done.worker = worker.id;
    done.attempts = attempt;
    summary.policy_seconds[done.job->policy].add(result.seconds);
    if (options.on_result) options.on_result(done);
    summary.results.emplace(task.name, std::move(done));
    return true;
  };

  net::FarmOptions farm;
  farm.transport = options.transport;
  farm.workers = options.workers;
  farm.should_stop = options.should_stop;
  net::FarmSummary run = net::run_task_farm(tasks, kind, farm);
  summary.pending += run.pending;
  summary.requeues = run.requeues;
  summary.interrupted = run.interrupted;
  summary.workers = std::move(run.workers);
  return summary;
}

}  // namespace ncb::dist
