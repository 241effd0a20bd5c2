#include "faults/fault_plan.h"

#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/format.h"
#include "common/parse.h"

namespace mron::faults {

namespace {

/// Split "key=value"; rejects a token without one.
std::pair<std::string, std::string> split_kv(const std::string& token,
                                             const std::string& directive) {
  const auto eq = token.find('=');
  MRON_INPUT_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
                 "fault plan: malformed token '" << token << "' in '"
                                                << directive << "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

double parse_num(const std::string& value, const std::string& directive) {
  std::size_t used = 0;
  double v = 0.0;
  bool ok = true;
  try {
    v = std::stod(value, &used);
  } catch (...) {
    ok = false;
  }
  MRON_INPUT_CHECK(ok && used == value.size(),
                 "fault plan: bad number '" << value << "' in '" << directive
                                            << "'");
  return v;
}

/// A seed or a node: the whole value as an integer of type T (no
/// fraction, no exponent, in T's range).
template <typename T>
T parse_int(const std::string& value, const std::string& directive) {
  const auto v = parse_integer<T>(value);
  MRON_INPUT_CHECK(v.has_value(), "fault plan: bad number '"
                                      << value << "' in '" << directive
                                      << "'");
  return *v;
}

/// A node= value: a node id, so never negative.
int parse_node(const std::string& value, const std::string& directive) {
  const int node = parse_int<int>(value, directive);
  MRON_INPUT_CHECK(node >= 0, "fault plan: negative node " << node << " in '"
                                                           << directive
                                                           << "'");
  return node;
}

}  // namespace

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed " << seed << "\n";
  os << "heartbeat period=" << format_double(heartbeat_period)
     << " timeout=" << format_double(heartbeat_timeout) << "\n";
  if (task_fail_prob > 0.0) {
    os << "taskfail prob=" << format_double(task_fail_prob) << "\n";
  }
  for (const auto& c : crashes) {
    os << "crash node=" << c.node << " at=" << format_double(c.at);
    if (c.restart_at >= 0.0) os << " restart=" << format_double(c.restart_at);
    os << "\n";
  }
  for (const auto& d : degradations) {
    os << "degrade node=" << d.node << " from=" << format_double(d.from)
       << " until=" << format_double(d.until);
    if (d.disk_factor != 1.0) os << " disk=" << format_double(d.disk_factor);
    if (d.nic_factor != 1.0) os << " nic=" << format_double(d.nic_factor);
    if (d.cpu_factor != 1.0) os << " cpu=" << format_double(d.cpu_factor);
    os << "\n";
  }
  return os.str();
}

void FaultPlan::validate(int num_nodes) const {
  MRON_INPUT_CHECK(task_fail_prob >= 0.0 && task_fail_prob <= 1.0,
                 "fault plan: taskfail prob " << task_fail_prob
                                              << " outside [0,1]");
  MRON_INPUT_CHECK(heartbeat_period > 0.0 && heartbeat_timeout > 0.0,
                 "fault plan: heartbeat period/timeout must be positive");
  for (const auto& c : crashes) {
    MRON_INPUT_CHECK(c.node >= 0 && c.node < num_nodes,
                   "fault plan: crash node " << c.node << " outside cluster of "
                                             << num_nodes);
    MRON_INPUT_CHECK(c.at >= 0.0, "fault plan: crash at " << c.at << " < 0");
    MRON_INPUT_CHECK(c.restart_at < 0.0 || c.restart_at > c.at,
                   "fault plan: crash restart " << c.restart_at
                                                << " not after crash " << c.at);
  }
  for (const auto& d : degradations) {
    MRON_INPUT_CHECK(d.node >= 0 && d.node < num_nodes,
                   "fault plan: degrade node " << d.node
                                               << " outside cluster of "
                                               << num_nodes);
    MRON_INPUT_CHECK(d.from >= 0.0 && d.until > d.from,
                   "fault plan: degrade window [" << d.from << "," << d.until
                                                  << ") is empty");
    MRON_INPUT_CHECK(
        d.disk_factor > 0.0 && d.nic_factor > 0.0 && d.cpu_factor > 0.0,
        "fault plan: degrade factors must be > 0 (node " << d.node << ")");
  }
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  // Normalize ';' separators to newlines, strip comments, then read
  // directive by directive.
  std::string cleaned;
  cleaned.reserve(text.size());
  bool in_comment = false;
  for (const char ch : text) {
    if (ch == '#') in_comment = true;
    if (ch == '\n') in_comment = false;
    if (in_comment) continue;
    cleaned.push_back(ch == ';' ? '\n' : ch);
  }

  std::istringstream lines(cleaned);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string keyword;
    if (!(words >> keyword)) continue;  // blank line

    if (keyword == "seed") {
      std::string v;
      MRON_INPUT_CHECK(static_cast<bool>(words >> v),
                     "fault plan: 'seed' needs a value");
      plan.seed = parse_int<std::uint64_t>(v, line);
    } else if (keyword == "taskfail") {
      std::string token;
      while (words >> token) {
        const auto [key, value] = split_kv(token, line);
        MRON_INPUT_CHECK(key == "prob",
                       "fault plan: unknown taskfail key '" << key << "'");
        plan.task_fail_prob = parse_num(value, line);
      }
    } else if (keyword == "heartbeat") {
      std::string token;
      while (words >> token) {
        const auto [key, value] = split_kv(token, line);
        if (key == "period") {
          plan.heartbeat_period = parse_num(value, line);
        } else if (key == "timeout") {
          plan.heartbeat_timeout = parse_num(value, line);
        } else {
          MRON_INPUT_CHECK(false,
                         "fault plan: unknown heartbeat key '" << key << "'");
        }
      }
    } else if (keyword == "crash") {
      CrashEvent c;
      std::string token;
      while (words >> token) {
        const auto [key, value] = split_kv(token, line);
        if (key == "node") {
          c.node = parse_node(value, line);
        } else if (key == "at") {
          c.at = parse_num(value, line);
        } else if (key == "restart") {
          c.restart_at = parse_num(value, line);
        } else {
          MRON_INPUT_CHECK(false,
                         "fault plan: unknown crash key '" << key << "'");
        }
      }
      // parse_node never yields a negative id: -1 here means "not given".
      MRON_INPUT_CHECK(c.node >= 0, "fault plan: crash without node= in '"
                                      << line << "'");
      plan.crashes.push_back(c);
    } else if (keyword == "degrade") {
      DegradeWindow d;
      std::string token;
      while (words >> token) {
        const auto [key, value] = split_kv(token, line);
        if (key == "node") {
          d.node = parse_node(value, line);
        } else if (key == "from") {
          d.from = parse_num(value, line);
        } else if (key == "until") {
          d.until = parse_num(value, line);
        } else if (key == "disk") {
          d.disk_factor = parse_num(value, line);
        } else if (key == "nic") {
          d.nic_factor = parse_num(value, line);
        } else if (key == "cpu") {
          d.cpu_factor = parse_num(value, line);
        } else {
          MRON_INPUT_CHECK(false,
                         "fault plan: unknown degrade key '" << key << "'");
        }
      }
      MRON_INPUT_CHECK(d.node >= 0, "fault plan: degrade without node= in '"
                                      << line << "'");
      plan.degradations.push_back(d);
    } else {
      MRON_INPUT_CHECK(false,
                     "fault plan: unknown directive '" << keyword << "'");
    }
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  MRON_INPUT_CHECK(in.good(), "fault plan: cannot read '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

}  // namespace mron::faults
