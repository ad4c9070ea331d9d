// ncb_serve — the online decision service CLI.
//
// Binds an AF_UNIX socket and serves decide/feedback traffic (the
// src/serve/ reactor) from a registry-built policy over a deterministic
// relation graph, logging every decision with its propensity to a binary
// event log that survives SIGTERM with no torn records. SIGINT/SIGTERM
// stop gracefully: connected clients get a drain window, the event log is
// flushed and closed, and the exit line reports the serve counters.
//
// Usage:
//   ncb_serve --socket <path> [--policy dfl-sso] [--epsilon 0.05]
//             [--arms 100] [--graph er] [--edge-prob 0.3]
//             [--family-param 4] [--seed N] [--horizon N]
//             [--log <file>] [--flush-bytes N] [--flush-ms N]
//             [--backlog N] [--drain-ms N]
//             [--metrics-out <file>] [--metrics-interval-ms N]
//   ncb_serve --inspect-log <file>      # offline: scan + summarize a log
#include <signal.h>

#include <csignal>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/emitters.hpp"
#include "exp/sweep_spec.hpp"
#include "serve/decision_engine.hpp"
#include "serve/event_log.hpp"
#include "serve/server.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"

namespace {

using namespace ncb;

int usage(const char* program) {
  std::cerr
      << "usage: " << program << " --socket <path> [options]\n"
         "       " << program << " --inspect-log <file>\n"
         "  --socket <path>   AF_UNIX socket to bind and serve on\n"
         "  --policy <spec>   policy registry spec (default: dfl-sso)\n"
         "  --epsilon E       exploration rate in [0,1] (default: 0.05)\n"
         "  --arms K          number of arms (default: 100)\n"
         "  --graph <family>  er|complete|empty|star|cycle|cliques|ba|ws\n"
         "                    (default: er)\n"
         "  --edge-prob P     ER edge probability / WS beta (default: 0.3)\n"
         "  --family-param N  cliques count / BA attach / WS k (default: 4)\n"
         "  --seed N          master seed (default: 20170605)\n"
         "  --horizon N       horizon hint for the policy (0 = anytime)\n"
         "  --log <file>      propensity-logged event stream (off by default)\n"
         "  --flush-bytes N   event-log size flush threshold (default 256K)\n"
         "  --flush-ms N      event-log age flush threshold (default 50)\n"
         "  --backlog N       listen backlog (default: 64)\n"
         "  --drain-ms N      post-signal client drain window (default: 500)\n"
         "  --metrics-out <f> write registry snapshots (JSON) to this file\n"
         "  --metrics-interval-ms N\n"
         "                    also snapshot every N ms while serving\n"
         "                    (default 0 = final snapshot only)\n"
         "  --inspect-log <f> scan an event log and print a summary plus a\n"
         "                    machine-readable join-health JSON block\n";
  return 2;
}

/// Flag plumbing for run_server and the event log, validated up front in
/// the validate_runner_options() style: every rejection names the flag and
/// echoes the offending value, and main's handler turns the throw into
/// "error: ..." on stderr with exit code 2.
struct ServeFlags {
  std::int64_t flush_bytes = 256 * 1024;
  std::int64_t flush_ms = 50;
  std::int64_t backlog = 64;
  std::int64_t drain_ms = 500;
  std::string metrics_out;
  std::int64_t metrics_interval_ms = 0;
};

void validate_serve_flags(const ServeFlags& flags) {
  if (flags.flush_bytes <= 0) {
    throw std::invalid_argument("--flush-bytes: must be positive (got " +
                                std::to_string(flags.flush_bytes) + ")");
  }
  if (flags.flush_ms <= 0) {
    throw std::invalid_argument("--flush-ms: must be positive (got " +
                                std::to_string(flags.flush_ms) + ")");
  }
  if (flags.backlog <= 0) {
    throw std::invalid_argument("--backlog: must be positive (got " +
                                std::to_string(flags.backlog) + ")");
  }
  if (flags.drain_ms < 0) {
    throw std::invalid_argument("--drain-ms: must be non-negative (got " +
                                std::to_string(flags.drain_ms) + ")");
  }
  if (flags.metrics_interval_ms < 0) {
    throw std::invalid_argument(
        "--metrics-interval-ms: must be non-negative (got " +
        std::to_string(flags.metrics_interval_ms) + ")");
  }
  if (flags.metrics_interval_ms > 0 && flags.metrics_out.empty()) {
    throw std::invalid_argument(
        "--metrics-interval-ms: requires --metrics-out (nowhere to write "
        "periodic snapshots)");
  }
}

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll sees EINTR promptly
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

// Exit codes: 0 for a fully intact log, 1 for a truncated tail (the
// complete prefix is summarized anyway), 2 for structural corruption
// (read_event_log throws into main's handler). CI's log-join assertions
// pipe through this, so a torn log can never satisfy them silently.
int inspect_log(const std::string& path) {
  const serve::EventLogScan scan = serve::read_event_log(path);
  const serve::EventLogJoin join = serve::join_event_log(scan);
  std::cout << "event log " << path << ": version=" << scan.version
            << " records=" << scan.records.size()
            << " decisions=" << scan.decisions
            << " feedbacks=" << scan.feedbacks << " joined=" << join.joined
            << " valid_bytes=" << scan.valid_bytes << '\n';
  // Join-health block: the same numbers in one machine-readable JSON
  // object, plus what the prose line cannot say — how many feedbacks were
  // orphans or duplicates and how many decisions never got a reward.
  const double min_propensity =
      join.decisions > 0 ? join.min_propensity : 0.0;
  std::cout << "{\n"
            << "  \"schema\": 1,\n"
            << "  \"path\": \"" << exp::json_escape(path) << "\",\n"
            << "  \"version\": " << scan.version << ",\n"
            << "  \"records\": " << scan.records.size() << ",\n"
            << "  \"decisions\": " << join.decisions << ",\n"
            << "  \"feedbacks\": " << scan.feedbacks << ",\n"
            << "  \"joined\": " << join.joined << ",\n"
            << "  \"unjoined_decisions\": " << (join.decisions - join.joined)
            << ",\n"
            << "  \"orphan_feedbacks\": " << join.orphan_feedbacks << ",\n"
            << "  \"duplicate_feedbacks\": " << join.duplicate_feedbacks
            << ",\n"
            << "  \"min_propensity\": " << exp::json_number(min_propensity)
            << ",\n"
            << "  \"valid_bytes\": " << scan.valid_bytes << ",\n"
            << "  \"truncated_tail\": "
            << (scan.truncated_tail ? "true" : "false") << "\n"
            << "}\n";
  if (scan.truncated_tail) {
    std::cerr << "error: truncated tail after the last complete record — "
                 "the prefix above is intact, but the log is incomplete\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    if (args.has("help")) return usage(args.program().c_str());
    if (args.has("inspect-log")) {
      return inspect_log(args.get_string("inspect-log", ""));
    }

    const std::string socket_path = args.get_string("socket", "");
    if (socket_path.empty()) return usage(args.program().c_str());

    ExperimentConfig config;
    config.graph_family = exp::parse_family(args.get_string("graph", "er"));
    config.num_arms = static_cast<std::size_t>(args.get_int("arms", 100));
    config.edge_probability = args.get_double("edge-prob", 0.3);
    config.family_param =
        static_cast<std::size_t>(args.get_int("family-param", 4));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20170605));

    serve::EngineOptions engine_options;
    engine_options.policy_spec = args.get_string("policy", "dfl-sso");
    engine_options.epsilon = args.get_double("epsilon", 0.05);
    engine_options.seed = config.seed;
    engine_options.horizon = args.get_int("horizon", 0);

    ServeFlags flags;
    flags.flush_bytes = args.get_int("flush-bytes", 256 * 1024);
    flags.flush_ms = args.get_int("flush-ms", 50);
    flags.backlog = args.get_int("backlog", 64);
    flags.drain_ms = args.get_int("drain-ms", 500);
    flags.metrics_out = args.get_string("metrics-out", "");
    flags.metrics_interval_ms = args.get_int("metrics-interval-ms", 0);
    validate_serve_flags(flags);

    std::unique_ptr<serve::EventLog> log;
    const std::string log_path = args.get_string("log", "");
    if (!log_path.empty()) {
      serve::EventLog::Options log_options;
      log_options.path = log_path;
      log_options.flush_bytes = static_cast<std::size_t>(flags.flush_bytes);
      log_options.flush_ms = static_cast<int>(flags.flush_ms);
      log = std::make_unique<serve::EventLog>(log_options);
    }

    serve::DecisionEngine engine(build_graph(config), engine_options,
                                 log.get());
    std::cout << "ncb_serve: " << engine.describe() << ", graph="
              << exp::family_token(config.graph_family) << ", socket="
              << socket_path
              << (log ? ", log=" + log_path : std::string(", no log")) << '\n';

    install_stop_handlers();
    serve::ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.backlog = static_cast<int>(flags.backlog);
    server_options.drain_ms = static_cast<int>(flags.drain_ms);
    server_options.should_stop = [] { return g_stop != 0; };
    server_options.metrics_out = flags.metrics_out;
    server_options.metrics_interval_ms =
        static_cast<int>(flags.metrics_interval_ms);
    const serve::ServerStats stats = serve::run_server(engine, server_options);

    if (log) log->close();  // drains every buffered record before we report
    std::cout << "ncb_serve: served " << stats.decide_requests
              << " decisions, " << stats.feedback_frames << " feedbacks ("
              << engine.unknown_feedbacks() << " unknown, "
              << engine.duplicate_feedbacks() << " duplicate) over "
              << stats.connections_accepted << " connections, "
              << stats.protocol_errors << " protocol errors\n";
    if (log) {
      std::cout << "ncb_serve: event log " << log->path() << ": "
                << log->records_appended() << " records, "
                << log->bytes_written() << " bytes, " << log->flush_batches()
                << " flush batches"
                << (log->write_failed() ? " (WRITE FAILURES — log truncated)"
                                        : "")
                << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "ncb_serve") << ": error: " << e.what()
              << '\n';
    return 2;
  }
}
