// Shared plumbing for the figure-reproduction benches.
//
// Every fig*_ binary prints (a) the experiment header, (b) CSV rows of the
// series the paper plots, and (c) an ASCII rendering of the figure, so
// `for b in build/bench/*; do $b; done` regenerates the whole evaluation.
// Common flags: --horizon, --reps, --arms, --p, --m, --seed, --quick,
// --csv-points (series downsampling for the CSV block), and
// --list-policies (print the policy registry and exit 0).
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "exp/shard_scheduler.hpp"
#include "sim/experiment.hpp"
#include "util/arg_parse.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/svg_plot.hpp"
#include "util/timer.hpp"

namespace ncb::bench {

struct CommonFlags {
  TimeSlot horizon = 10000;
  std::size_t reps = 20;
  std::size_t arms = 100;
  double p = 0.3;
  std::size_t m = 3;
  std::uint64_t seed = 20170605;
  std::size_t csv_points = 25;
  bool quick = false;
  std::string svg_dir;  ///< When non-empty, figures are also written as SVG.
};

inline CommonFlags parse_common(int argc, char** argv) {
  try {
    const ArgParse args(argc, argv);
    if (args.has("list-policies")) {
      std::cout << PolicyRegistry::instance().render_listing();
      std::exit(0);
    }
    const auto positive = [&](const char* name, std::int64_t v) {
      if (v <= 0) {
        throw std::invalid_argument(std::string("--") + name +
                                    ": must be positive");
      }
      return static_cast<std::size_t>(v);
    };
    const auto non_negative = [&](const char* name, std::int64_t v) {
      if (v < 0) {
        throw std::invalid_argument(std::string("--") + name +
                                    ": must be non-negative");
      }
      return static_cast<std::size_t>(v);
    };
    CommonFlags f;
    f.quick = args.get_bool("quick", false);
    f.horizon = args.get_int("horizon", f.quick ? 2000 : 10000);
    if (f.horizon <= 0) {
      throw std::invalid_argument("--horizon: must be positive");
    }
    f.reps = positive("reps", args.get_int("reps", f.quick ? 5 : 20));
    f.arms = non_negative("arms", args.get_int("arms", 0));  // 0 = default
    f.p = args.get_double("p", 0.3);
    f.m = positive("m", args.get_int("m", 3));
    f.seed = static_cast<std::uint64_t>(
        non_negative("seed", args.get_int("seed", 20170605)));
    f.csv_points = positive("csv-points", args.get_int("csv-points", 25));
    f.svg_dir = args.get_string("svg-dir", "");
    return f;
  } catch (const std::invalid_argument& e) {
    std::cerr << (argc > 0 ? argv[0] : "bench") << ": error: " << e.what()
              << '\n';
    std::exit(2);
  }
}

/// Writes the figure to <svg_dir>/<file>.svg when --svg-dir is set.
inline void maybe_write_svg(const CommonFlags& flags, const std::string& file,
                            const std::string& title,
                            const std::vector<PlotSeries>& series,
                            const std::string& y_label) {
  if (flags.svg_dir.empty()) return;
  SvgOptions opts;
  opts.title = title;
  opts.y_label = y_label;
  opts.y_zero = true;
  const std::string path = flags.svg_dir + "/" + file + ".svg";
  if (write_svg(path, series, opts)) {
    std::cout << "(svg written: " << path << ")\n";
  } else {
    std::cout << "(svg write FAILED: " << path << ")\n";
  }
}

/// Applies common flag overrides onto a figure's default config.
inline void apply_flags(ExperimentConfig& config, const CommonFlags& f) {
  config.horizon = f.horizon;
  config.replications = f.reps;
  if (f.arms > 0) config.num_arms = f.arms;
  config.seed = f.seed;
}

/// Prints one named series as CSV rows "series,t,value" downsampled to
/// `points` checkpoints (always including the final slot).
inline void print_series_csv(const std::string& series_name,
                             const std::vector<double>& values,
                             std::size_t points) {
  CsvWriter csv(std::cout);
  if (values.empty()) return;
  const std::size_t stride = std::max<std::size_t>(1, values.size() / points);
  for (std::size_t i = stride - 1; i < values.size(); i += stride) {
    csv.row(series_name, {static_cast<double>(i + 1), values[i]});
  }
  if ((values.size() - 1) % stride != stride - 1) {
    csv.row(series_name,
            {static_cast<double>(values.size()), values.back()});
  }
}

/// Prints the ASCII figure for one or more named series.
inline void print_figure(const std::string& title,
                         const std::vector<PlotSeries>& series,
                         const std::string& y_label, double x_step) {
  PlotOptions opts;
  opts.title = title;
  opts.y_label = y_label;
  opts.x_step = x_step;
  opts.y_zero = true;
  opts.height = 16;
  std::vector<PlotSeries> down;
  for (const auto& s : series) {
    down.push_back({s.name, downsample(s.values, 72)});
  }
  if (!down.empty() && !down[0].values.empty()) {
    opts.x_step = x_step * static_cast<double>(series[0].values.size()) /
                  static_cast<double>(down[0].values.size());
  }
  std::cout << render_plot(down, opts);
}

inline void print_header(const std::string& figure,
                         const std::string& claim,
                         const ExperimentConfig& config) {
  std::cout << "==========================================================\n"
            << figure << '\n' << claim << '\n'
            << "config: " << config.describe() << '\n'
            << "==========================================================\n";
}

}  // namespace ncb::bench
