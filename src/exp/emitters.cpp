#include "exp/emitters.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ncb::exp {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; the engine never produces them, but stay valid.
    return value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
  }
  char buf[40];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JobRecord JobRecord::from(const SweepJob& job, const JobAggregate& aggregate) {
  JobRecord record;
  record.key = job.key;
  record.policy = job.policy;
  record.scenario = scenario_token(job.scenario);
  record.graph = family_token(job.config.graph_family);
  record.arms = job.config.num_arms;
  record.p = job.config.edge_probability;
  record.family_param = job.config.family_param;
  record.horizon = job.config.horizon;
  record.replications = aggregate.replications();
  record.seed = job.config.seed;
  record.strategy_size =
      is_combinatorial(job.scenario) ? job.config.strategy_size : 0;
  record.optimal_per_slot = aggregate.optimal_per_slot();
  record.checkpoints = aggregate.grid();
  record.expected_mean = aggregate.per_slot_regret().means();
  record.expected_sd = aggregate.per_slot_regret().stddevs();
  record.cumulative_mean = aggregate.cumulative_regret().means();
  record.cumulative_sd = aggregate.cumulative_regret().stddevs();
  record.final_mean = aggregate.final_cumulative().mean();
  record.final_sd = aggregate.final_cumulative().stddev();
  record.final_min = aggregate.final_cumulative().min();
  record.final_max = aggregate.final_cumulative().max();
  return record;
}

namespace {

void append_array(std::ostringstream& out, const char* name,
                  const std::vector<double>& values) {
  out << ",\"" << name << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? "," : "") << json_number(values[i]);
  }
  out << ']';
}

}  // namespace

std::string render_job_json(const JobRecord& record) {
  std::ostringstream out;
  out << "{\"key\":\"" << json_escape(record.key) << "\",\"policy\":\""
      << json_escape(record.policy) << "\",\"scenario\":\"" << record.scenario
      << "\",\"graph\":\"" << record.graph << "\",\"arms\":" << record.arms
      << ",\"p\":" << json_number(record.p)
      << ",\"family_param\":" << record.family_param
      << ",\"horizon\":" << record.horizon
      << ",\"replications\":" << record.replications
      << ",\"seed\":" << record.seed
      << ",\"strategy_size\":" << record.strategy_size
      << ",\"optimal_per_slot\":" << json_number(record.optimal_per_slot)
      << ",\"checkpoints\":[";
  for (std::size_t i = 0; i < record.checkpoints.size(); ++i) {
    out << (i ? "," : "") << record.checkpoints[i];
  }
  out << ']';
  append_array(out, "expected_mean", record.expected_mean);
  append_array(out, "expected_sd", record.expected_sd);
  append_array(out, "cumulative_mean", record.cumulative_mean);
  append_array(out, "cumulative_sd", record.cumulative_sd);
  out << ",\"final_mean\":" << json_number(record.final_mean)
      << ",\"final_sd\":" << json_number(record.final_sd)
      << ",\"final_min\":" << json_number(record.final_min)
      << ",\"final_max\":" << json_number(record.final_max) << '}';
  return out.str();
}

namespace {

/// Exact inverse of json_escape for a string literal whose opening quote
/// sits at line[at]. Returns false on malformed or unterminated input.
bool decode_json_string(const std::string& line, std::size_t at,
                        std::string& out) {
  if (at >= line.size() || line[at] != '"') return false;
  out.clear();
  for (std::size_t i = at + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 1 >= line.size()) return false;
    const char next = line[++i];
    switch (next) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        unsigned value = 0;
        for (int k = 1; k <= 4; ++k) {
          const char h = line[i + static_cast<std::size_t>(k)];
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        out += static_cast<char>(value);
        i += 4;
        break;
      }
      default: out += next;
    }
  }
  return false;
}

/// Cursor-free field extraction over one job line. Each helper finds
/// `"name":` anywhere in the line; fields are unique by construction.
class JsonFieldReader {
 public:
  explicit JsonFieldReader(const std::string& line) : line_(line) {}

  std::string get_string(const char* name) const {
    const std::size_t at = value_pos(name);
    std::string out;
    if (!decode_json_string(line_, at, out)) {
      fail(name, "expected a terminated string");
    }
    return out;
  }

  double get_number(const char* name) const {
    const std::size_t at = value_pos(name);
    std::size_t used = 0;
    const double v = std::stod(line_.substr(at, 64), &used);
    if (used == 0) fail(name, "expected number");
    return v;
  }

  /// Exact unsigned 64-bit parse — get_number would round seeds > 2^53.
  std::uint64_t get_u64(const char* name) const {
    const std::size_t at = value_pos(name);
    const std::string chunk = line_.substr(at, 32);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(chunk.c_str(), &end, 10);
    if (end == chunk.c_str()) fail(name, "expected integer");
    return v;
  }

  std::vector<TimeSlot> get_slot_array(const char* name) const {
    const std::size_t at = value_pos(name);
    if (line_[at] != '[') fail(name, "expected array");
    std::vector<TimeSlot> out;
    std::size_t i = at + 1;
    while (i < line_.size() && line_[i] != ']') {
      const std::string chunk = line_.substr(i, 32);
      char* end = nullptr;
      const long long v = std::strtoll(chunk.c_str(), &end, 10);
      if (end == chunk.c_str()) fail(name, "bad array element");
      out.push_back(static_cast<TimeSlot>(v));
      i += static_cast<std::size_t>(end - chunk.c_str());
      if (i < line_.size() && line_[i] == ',') ++i;
    }
    if (i >= line_.size()) fail(name, "unterminated array");
    return out;
  }

  std::vector<double> get_array(const char* name) const {
    const std::size_t at = value_pos(name);
    if (line_[at] != '[') fail(name, "expected array");
    std::vector<double> out;
    std::size_t i = at + 1;
    while (i < line_.size() && line_[i] != ']') {
      std::size_t used = 0;
      out.push_back(std::stod(line_.substr(i, 64), &used));
      if (used == 0) fail(name, "bad array element");
      i += used;
      if (i < line_.size() && line_[i] == ',') ++i;
    }
    if (i >= line_.size()) fail(name, "unterminated array");
    return out;
  }

 private:
  std::size_t value_pos(const char* name) const {
    const std::string needle = std::string("\"") + name + "\":";
    const std::size_t at = line_.find(needle);
    if (at == std::string::npos) fail(name, "field missing");
    return at + needle.size();
  }

  [[noreturn]] void fail(const char* name, const char* what) const {
    throw std::invalid_argument(std::string("sweep job record: field '") +
                                name + "': " + what);
  }

  const std::string& line_;
};

}  // namespace

JobRecord parse_job_json(const std::string& line) {
  const JsonFieldReader in(line);
  JobRecord record;
  record.key = in.get_string("key");
  record.policy = in.get_string("policy");
  record.scenario = in.get_string("scenario");
  record.graph = in.get_string("graph");
  record.arms = static_cast<std::size_t>(in.get_u64("arms"));
  record.p = in.get_number("p");
  record.family_param = static_cast<std::size_t>(in.get_u64("family_param"));
  record.horizon = static_cast<TimeSlot>(in.get_u64("horizon"));
  record.replications = static_cast<std::size_t>(in.get_u64("replications"));
  record.seed = in.get_u64("seed");
  record.strategy_size = static_cast<std::size_t>(in.get_u64("strategy_size"));
  record.optimal_per_slot = in.get_number("optimal_per_slot");
  record.checkpoints = in.get_slot_array("checkpoints");
  record.expected_mean = in.get_array("expected_mean");
  record.expected_sd = in.get_array("expected_sd");
  record.cumulative_mean = in.get_array("cumulative_mean");
  record.cumulative_sd = in.get_array("cumulative_sd");
  record.final_mean = in.get_number("final_mean");
  record.final_sd = in.get_number("final_sd");
  record.final_min = in.get_number("final_min");
  record.final_max = in.get_number("final_max");
  const std::size_t n = record.checkpoints.size();
  if (record.expected_mean.size() != n || record.expected_sd.size() != n ||
      record.cumulative_mean.size() != n ||
      record.cumulative_sd.size() != n) {
    throw std::invalid_argument(
        "sweep job record: series/checkpoint length mismatch");
  }
  return record;
}

std::string render_sweep_json_header(const SweepSpec& spec) {
  std::ostringstream out;
  out << "{\n\"schema\": " << kSweepSchemaVersion
      << ",\n\"engine\": \"ncb_sweep\",\n"
      << "\"spec\": " << spec.canonical() << ",\n\"jobs\": [\n";
  return out.str();
}

std::string render_sweep_json(const SweepSpec& spec,
                              const std::vector<std::string>& job_lines) {
  std::ostringstream out;
  out << render_sweep_json_header(spec);
  for (std::size_t i = 0; i < job_lines.size(); ++i) {
    out << job_lines[i] << (i + 1 < job_lines.size() ? ",\n" : "\n");
  }
  out << "]\n}\n";
  return out.str();
}

std::map<std::string, std::string> load_job_lines(const std::string& path) {
  std::map<std::string, std::string> by_key;
  std::ifstream in(path);
  if (!in) return by_key;
  std::string line;
  while (std::getline(in, line)) {
    // Job lines are the only lines starting with the key field.
    if (line.rfind("{\"key\":\"", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (line.empty() || line.back() != '}') continue;  // truncated write
    std::string key;
    if (!decode_json_string(line, 7, key)) continue;
    by_key.emplace(std::move(key), line);
  }
  return by_key;
}

std::string render_replay_json(const ReplayRecord& record) {
  std::ostringstream out;
  out << "{\"policy\":\"" << json_escape(record.policy)
      << "\",\"description\":\"" << json_escape(record.description)
      << "\",\"logging\":" << (record.logging ? "true" : "false")
      << ",\"epsilon\":" << json_number(record.epsilon)
      << ",\"seed\":" << record.seed
      << ",\"decisions\":" << record.decisions
      << ",\"events\":" << record.events << ",\"matched\":" << record.matched
      << ",\"ips_mean\":" << json_number(record.ips_mean)
      << ",\"ips_se\":" << json_number(record.ips_se)
      << ",\"snips\":" << json_number(record.snips)
      << ",\"dr_mean\":" << json_number(record.dr_mean)
      << ",\"dr_se\":" << json_number(record.dr_se)
      << ",\"ess\":" << json_number(record.ess)
      << ",\"max_weight\":" << json_number(record.max_weight) << '}';
  return out.str();
}

std::string render_replay_panel_json(const ReplayPanelMeta& meta,
                                     const std::vector<std::string>& lines) {
  std::ostringstream out;
  out << "{\n\"schema\": " << kReplaySchemaVersion
      << ",\n\"engine\": \"ncb_replay\",\n\"log\": {\"path\":\""
      << json_escape(meta.log_path) << "\",\"decisions\":" << meta.decisions
      << ",\"feedbacks\":" << meta.feedbacks << ",\"joined\":" << meta.joined
      << ",\"truncated_tail\":" << (meta.truncated_tail ? "true" : "false")
      << ",\"arms\":" << meta.arms << ",\"graph\":\""
      << json_escape(meta.graph)
      << "\",\"min_propensity\":" << json_number(meta.min_propensity)
      << ",\"empirical_mean\":" << json_number(meta.empirical_mean)
      << ",\"empirical_se\":" << json_number(meta.empirical_se)
      << "},\n\"policies\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "]\n}\n";
  return out.str();
}

std::string render_sweep_csv(const std::vector<JobRecord>& records) {
  std::ostringstream out;
  out << "key,policy,scenario,graph,arms,p,family_param,horizon,replications,"
         "seed,strategy_size,optimal_per_slot,t,expected_mean,expected_sd,"
         "cumulative_mean,cumulative_sd,final_mean,final_sd\n";
  for (const JobRecord& r : records) {
    std::ostringstream prefix;
    prefix << '"' << r.key << "\",\"" << r.policy << "\"," << r.scenario << ','
           << r.graph << ',' << r.arms << ',' << json_number(r.p) << ','
           << r.family_param << ',' << r.horizon << ',' << r.replications
           << ',' << r.seed << ',' << r.strategy_size << ','
           << json_number(r.optimal_per_slot) << ',';
    for (std::size_t i = 0; i < r.checkpoints.size(); ++i) {
      out << prefix.str() << r.checkpoints[i] << ','
          << json_number(r.expected_mean[i]) << ','
          << json_number(r.expected_sd[i]) << ','
          << json_number(r.cumulative_mean[i]) << ','
          << json_number(r.cumulative_sd[i]) << ','
          << json_number(r.final_mean) << ',' << json_number(r.final_sd)
          << '\n';
    }
  }
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open '" + tmp + "' for write");
    out << content;
    if (!out) throw std::runtime_error("write failed: '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

}  // namespace ncb::exp
