// Counterfactual replay: price a panel of candidate policies on one
// logged traffic run, without re-serving.
//
// The serve event log carries exactly what off-policy evaluation needs —
// (decision_id, key, action, propensity) per decision and (decision_id,
// reward) per join — in the engine's global operation order (appends happen
// under the engine lock). replay_panel() walks that order once per panel:
//
//   pass 1  join decisions to rewards (serve::join_event_log), fit the
//           per-arm empirical-mean reward model (the DR baseline), and
//           take the logging policy's own empirical reward stats from the
//           join;
//   pass 2  drive each candidate through the stream independently (the
//           candidates never interact, which is also what lets a
//           distributed panel assign candidates to workers). Each
//           candidate runs on its own serve::Explorer, the decide-and-price
//           core DecisionEngine serves through — the same policy clock,
//           per-key exploration streams and observe() at feedback time —
//           so its state evolves as it would have online and a replay is
//           bit-identical across runs and machines. Feedback joins its
//           decision by join_event_log's rule, so the join, the DR model
//           and every candidate count the same events.
//
// Each joined event scores the candidate through IPS / SNIPS / DR
// (replay/estimators.hpp) using the candidate's action *distribution*
// q(a | key) = Explorer::propensity(a, greedy), the expression the engine
// logs as propensity (DR's direct term is Explorer::expected under it).
// Replaying the logging policy spec at matched seed/epsilon therefore
// reproduces q == p bitwise and the IPS estimate equals the log's empirical
// mean reward exactly — the identity CI pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "replay/estimators.hpp"
#include "serve/event_log.hpp"
#include "util/types.hpp"

namespace ncb::replay {

struct ReplayOptions {
  /// Engine-level exploration rate assumed for every candidate (the
  /// epsilon the service would run them with). Must be in [0, 1].
  double epsilon = 0.05;
  /// Master seed for candidate policy streams and per-key exploration
  /// streams; match the serving seed to replay the logging policy exactly.
  std::uint64_t seed = 20170605;
  /// Horizon hint forwarded to policy builders (0 = anytime).
  TimeSlot horizon = 0;
};

/// One candidate's panel entry. Carries both the raw accumulator state
/// (the Welford stats and weight sums — what a distributed replay worker
/// ships over the wire) and the display estimates finalize_candidate()
/// derives from it, so local and sharded panels go through one code path.
struct CandidateSummary {
  std::string spec;         ///< Registry spec string, e.g. "ucb1".
  std::string description;  ///< Built policy's describe().
  std::uint64_t decisions = 0;  ///< Decision records replayed through it.
  std::uint64_t events = 0;     ///< Joined feedback events scored.
  /// Events where the candidate's own sampled action (policy greedy +
  /// per-key exploration draw) equals the logged action.
  std::uint64_t matched = 0;
  // Raw state (exact; wire-transportable).
  RunningStat ips_stat;  ///< Per-event IPS terms w*r.
  RunningStat dr_stat;   ///< Per-event DR terms.
  double weight_sum = 0.0;
  double weight_sq_sum = 0.0;
  double weighted_reward_sum = 0.0;
  double max_weight = 0.0;
  // Display estimates, derived by finalize_candidate().
  double ips_mean = 0.0;
  double ips_variance = 0.0;  ///< Sample variance of the per-event terms.
  double ips_se = 0.0;        ///< Standard error of ips_mean.
  double snips = 0.0;
  double dr_mean = 0.0;
  double dr_variance = 0.0;
  double dr_se = 0.0;
  double ess = 0.0;  ///< Kish effective sample size.
};

/// Whole-panel result: log/join diagnostics, the logging policy's own
/// empirical reward stats, the DR baseline model, and one summary per
/// candidate (in input order).
struct PanelResult {
  std::uint64_t decisions = 0;
  std::uint64_t feedbacks = 0;
  std::uint64_t joined = 0;
  std::uint64_t orphan_feedbacks = 0;
  std::uint64_t duplicate_feedbacks = 0;
  bool truncated_tail = false;
  /// Logged propensity floor: min over decisions (>= eps_log / K by the
  /// engine's construction).
  double min_propensity = 0.0;
  /// Empirical mean/variance of the logged rewards, accumulated in
  /// feedback order — the exact sequence every candidate's IPS
  /// accumulator sees, so the logging-policy identity holds bitwise.
  double empirical_mean = 0.0;
  double empirical_variance = 0.0;
  double empirical_se = 0.0;
  /// Per-arm empirical-mean reward model (DR baseline); index = ArmId.
  std::vector<double> arm_model;
  double model_arm_average = 0.0;
  std::vector<CandidateSummary> candidates;
};

/// The front-door check both panels (replay_panel, run_distributed_panel)
/// run before touching the log or starting a worker: throws
/// std::invalid_argument on epsilon outside [0, 1] or a spec that
/// PolicyRegistry::check_single_play rejects.
void check_panel(const std::vector<std::string>& specs,
                 const ReplayOptions& options);

/// Replays every candidate spec over the scanned log, after check_panel.
/// Throws
/// std::invalid_argument on an empty graph, epsilon outside [0, 1], a bad
/// spec, a logged action outside the graph's arm range (wrong graph
/// flags), or a non-positive logged propensity.
[[nodiscard]] PanelResult replay_panel(const Graph& graph,
                                       const serve::EventLogScan& scan,
                                       const std::vector<std::string>& specs,
                                       const ReplayOptions& options);

// The pieces replay_panel is made of, exposed for the distributed replay
// coordinator/worker (replay/dispatch.hpp): pass 1 runs once on the
// coordinator, score_candidate runs per candidate wherever that candidate
// was assigned, and finalize_candidate derives the display estimates from
// raw accumulator state — the one code path shared by local and sharded
// panels, which is what makes the sharded panel byte-identical.

/// Pass 1 alone: join diagnostics, the DR baseline model, and the log's
/// own empirical reward statistics — a PanelResult with no candidates.
/// Throws std::invalid_argument on an empty graph, an out-of-range logged
/// action, or a non-positive logged propensity.
[[nodiscard]] PanelResult panel_base(const Graph& graph,
                                     const serve::EventLogScan& scan);

/// Drives one candidate spec through the raw record stream and returns its
/// summary with the raw accumulator state filled in (display estimates
/// still zero — call finalize_candidate). `arm_model` and
/// `model_arm_average` are pass-1 outputs (PanelResult::arm_model /
/// model_arm_average). The arithmetic is operation-for-operation the one
/// the lockstep panel performs for that candidate, so the result is
/// bitwise identical wherever it runs. A sharded worker receives every
/// input off the wire, so this checks them itself: throws
/// std::invalid_argument on an empty graph, epsilon outside [0, 1], a bad
/// spec, an arm model not sized to the graph, a logged action outside the
/// graph's arms, or a non-positive logged propensity.
[[nodiscard]] CandidateSummary score_candidate(
    const Graph& graph, const std::vector<serve::EventRecord>& records,
    const std::string& spec, const ReplayOptions& options,
    const std::vector<double>& arm_model, double model_arm_average);

/// Derives events/ips_*/snips/dr_*/ess from the summary's raw state.
void finalize_candidate(CandidateSummary& summary);

}  // namespace ncb::replay
