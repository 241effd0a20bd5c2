#include "cluster/cluster_spec.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "common/parse.h"

namespace mron::cluster {

namespace {

std::vector<std::string> split_statements(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == '\n' || c == ';') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> tokenize(const std::string& stmt) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : stmt) {
    if (c == '#') break;  // comment to end of statement
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

double parse_number(const std::string& value, const std::string& stmt) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  MRON_INPUT_CHECK(used == value.size() && !value.empty(),
                 "bad number '" << value << "' in cluster spec statement: "
                                << stmt);
  return v;
}

int parse_int(const std::string& value, const std::string& stmt) {
  const auto v = parse_integer<int>(value);
  MRON_INPUT_CHECK(v.has_value(), "expected integer, got '"
                                      << value
                                      << "' in cluster spec statement: "
                                      << stmt);
  return *v;
}

/// GiB as an int64 byte count: values past its range are rejected here
/// rather than cast.
Bytes parse_gib(const std::string& value, const std::string& stmt) {
  const double gb = parse_number(value, stmt);
  MRON_INPUT_CHECK(std::abs(gb) < 0x1p33, "'" << value
                                              << "' GiB out of range in "
                                                 "cluster spec statement: "
                                              << stmt);
  return gibibytes(gb);
}

NodeGroup parse_group(const std::vector<std::string>& toks,
                      const std::string& stmt) {
  NodeGroup g;
  g.nodes_per_rack = 0;
  bool have_racks = false;
  bool have_nodes = false;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const std::string& tok = toks[i];
    const std::size_t eq = tok.find('=');
    MRON_INPUT_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < tok.size(),
                   "expected key=value, got '" << tok
                                               << "' in: " << stmt);
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "name") {
      g.name = value;
    } else if (key == "racks") {
      g.racks = parse_int(value, stmt);
      have_racks = true;
    } else if (key == "nodes") {
      g.nodes_per_rack = parse_int(value, stmt);
      have_nodes = true;
    } else if (key == "cores") {
      g.hardware.physical_cores = parse_int(value, stmt);
    } else if (key == "vcores") {
      g.hardware.total_vcores = parse_int(value, stmt);
    } else if (key == "container_vcores") {
      g.hardware.container_vcores = parse_int(value, stmt);
    } else if (key == "mem_gb") {
      g.hardware.node_memory = parse_gib(value, stmt);
    } else if (key == "container_mem_gb") {
      g.hardware.container_memory = parse_gib(value, stmt);
    } else if (key == "cpu_quota") {
      g.hardware.cpu_quota_per_vcore = parse_number(value, stmt);
    } else if (key == "disk_mbps") {
      g.hardware.disk_bandwidth = mib_per_sec(parse_number(value, stmt));
    } else if (key == "seek_penalty") {
      g.hardware.disk_seek_penalty = parse_number(value, stmt);
    } else if (key == "nic_gbps") {
      g.hardware.nic_bandwidth = gbit_per_sec(parse_number(value, stmt));
    } else if (key == "daemon_reserve") {
      g.hardware.daemon_core_reserve = parse_number(value, stmt);
    } else {
      MRON_INPUT_CHECK(false, "unknown group key '" << key << "' in: " << stmt);
    }
  }
  MRON_INPUT_CHECK(have_racks && have_nodes,
                 "group statement needs racks= and nodes=: " << stmt);
  return g;
}

void validate_hardware(const NodeHardware& hw, const std::string& where) {
  MRON_INPUT_CHECK(hw.physical_cores >= 1, where << ": cores must be >= 1");
  MRON_INPUT_CHECK(hw.total_vcores >= 1, where << ": vcores must be >= 1");
  MRON_INPUT_CHECK(
      hw.container_vcores >= 1 && hw.container_vcores <= hw.total_vcores,
      where << ": container_vcores must be in [1, vcores]");
  MRON_INPUT_CHECK(hw.node_memory > Bytes(0), where << ": mem_gb must be > 0");
  MRON_INPUT_CHECK(
      hw.container_memory > Bytes(0) && hw.container_memory <= hw.node_memory,
      where << ": container_mem_gb must be in (0, mem_gb]");
  MRON_INPUT_CHECK(hw.cpu_quota_per_vcore > 0.0,
                 where << ": cpu_quota must be > 0");
  MRON_INPUT_CHECK(hw.disk_bandwidth.rate() > 0.0,
                 where << ": disk_mbps must be > 0");
  MRON_INPUT_CHECK(hw.disk_seek_penalty >= 0.0,
                 where << ": seek_penalty must be >= 0");
  MRON_INPUT_CHECK(hw.nic_bandwidth.rate() > 0.0,
                 where << ": nic_gbps must be > 0");
  MRON_INPUT_CHECK(hw.daemon_core_reserve >= 0.0,
                 where << ": daemon_reserve must be >= 0");
  MRON_INPUT_CHECK(hw.container_core_units() > 0.0,
                 where << ": daemon_reserve leaves no container core-units");
}

}  // namespace

void validate_cluster_spec(const ClusterSpec& spec) {
  MRON_INPUT_CHECK(spec.inter_rack_factor > 0.0,
                 "inter_rack_factor must be > 0");
  if (spec.groups.empty()) {
    MRON_INPUT_CHECK(spec.num_slaves >= 1, "cluster needs at least one slave");
    MRON_INPUT_CHECK(spec.num_slaves <= kMaxClusterNodes,
                   "cluster of " << spec.num_slaves << " nodes exceeds the "
                                 << kMaxClusterNodes << "-node limit");
    int total = 0;
    for (int s : spec.rack_sizes) {
      MRON_INPUT_CHECK(s >= 1, "every rack needs at least one node");
      total += s;
    }
    MRON_INPUT_CHECK(total == spec.num_slaves,
                   "rack sizes sum to " << total << ", expected "
                                        << spec.num_slaves);
    validate_hardware(spec.default_hardware(), "cluster");
    return;
  }
  std::int64_t total = 0;  // wide: racks x nodes may overflow an int
  for (const NodeGroup& g : spec.groups) {
    const std::string where =
        g.name.empty() ? std::string("group") : "group '" + g.name + "'";
    MRON_INPUT_CHECK(g.racks >= 1, where << ": racks must be >= 1");
    MRON_INPUT_CHECK(g.nodes_per_rack >= 1, where << ": nodes must be >= 1");
    validate_hardware(g.hardware, where);
    total += static_cast<std::int64_t>(g.racks) * g.nodes_per_rack;
  }
  MRON_INPUT_CHECK(total <= kMaxClusterNodes,
                 "cluster of " << total << " nodes exceeds the "
                               << kMaxClusterNodes << "-node limit");
}

ClusterSpec parse_cluster_spec(const std::string& text) {
  ClusterSpec spec;
  spec.groups.clear();
  for (const std::string& stmt : split_statements(text)) {
    const auto toks = tokenize(stmt);
    if (toks.empty()) continue;
    if (toks[0] == "group") {
      spec.groups.push_back(parse_group(toks, stmt));
    } else if (toks[0] == "inter_rack_factor") {
      MRON_INPUT_CHECK(toks.size() == 2,
                     "inter_rack_factor takes one value: " << stmt);
      spec.inter_rack_factor = parse_number(toks[1], stmt);
    } else {
      MRON_INPUT_CHECK(false, "unknown cluster spec statement: " << stmt);
    }
  }
  MRON_INPUT_CHECK(!spec.groups.empty(),
                 "cluster spec declares no group statements");
  validate_cluster_spec(spec);  // before sync_totals() sizes per-rack state
  spec.sync_totals();
  return spec;
}

ClusterSpec scaled_spec(int num_slaves, int rack_size) {
  MRON_INPUT_CHECK(num_slaves >= 1, "scaled spec needs at least one slave");
  MRON_INPUT_CHECK(rack_size >= 1, "scaled spec needs rack_size >= 1");
  ClusterSpec spec;
  spec.groups.clear();
  const int full = num_slaves / rack_size;
  const int rem = num_slaves % rack_size;
  if (full > 0) {
    NodeGroup g;
    g.name = "std";
    g.racks = full;
    g.nodes_per_rack = rack_size;
    spec.groups.push_back(g);
  }
  if (rem > 0) {
    NodeGroup g;
    g.name = full > 0 ? "std_tail" : "std";
    g.racks = 1;
    g.nodes_per_rack = rem;
    spec.groups.push_back(g);
  }
  validate_cluster_spec(spec);
  spec.sync_totals();
  return spec;
}

ClusterSpec load_cluster_spec(const std::string& arg) {
  if (arg.empty() || arg == "testbed19" || arg == "default") {
    return ClusterSpec{};
  }
  if (arg.rfind("nodes:", 0) == 0) {
    const std::string rest = arg.substr(6);
    const std::size_t comma = rest.find(',');
    const std::string n_str = rest.substr(0, comma);
    int rack_size = 64;
    if (comma != std::string::npos) {
      const std::string r = rest.substr(comma + 1);
      MRON_INPUT_CHECK(r.rfind("rack:", 0) == 0,
                     "bad cluster preset '" << arg
                                            << "' (want nodes:N[,rack:R])");
      rack_size = parse_int(r.substr(5), arg);
    }
    return scaled_spec(parse_int(n_str, arg), rack_size);
  }
  if (arg.find('=') != std::string::npos) {
    return parse_cluster_spec(arg);
  }
  std::ifstream in(arg);
  MRON_INPUT_CHECK(in.good(), "cannot open cluster spec file: " << arg);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_cluster_spec(buf.str());
}

std::string render_cluster_spec(const ClusterSpec& spec) {
  std::ostringstream out;
  out << "inter_rack_factor " << format_double(spec.inter_rack_factor)
      << "\n";
  auto emit = [&](const std::string& name, int racks, int nodes,
                  const NodeHardware& hw) {
    out << "group";
    if (!name.empty()) out << " name=" << name;
    out << " racks=" << racks << " nodes=" << nodes
        << " cores=" << hw.physical_cores << " vcores=" << hw.total_vcores
        << " container_vcores=" << hw.container_vcores
        << " mem_gb=" << format_double(hw.node_memory.gib())
        << " container_mem_gb=" << format_double(hw.container_memory.gib())
        << " cpu_quota=" << format_double(hw.cpu_quota_per_vcore)
        << " disk_mbps="
        << format_double(hw.disk_bandwidth.rate() / (1024.0 * 1024.0))
        << " seek_penalty=" << format_double(hw.disk_seek_penalty)
        << " nic_gbps=" << format_double(hw.nic_bandwidth.rate() * 8.0 / 1e9)
        << " daemon_reserve=" << format_double(hw.daemon_core_reserve)
        << "\n";
  };
  if (spec.groups.empty()) {
    // Homogeneous spec: render each distinct rack size as its own group so
    // the text round-trips into an equivalent topology.
    const NodeHardware hw = spec.default_hardware();
    std::size_t i = 0;
    while (i < spec.rack_sizes.size()) {
      std::size_t j = i;
      while (j < spec.rack_sizes.size() &&
             spec.rack_sizes[j] == spec.rack_sizes[i]) {
        ++j;
      }
      emit("", static_cast<int>(j - i), spec.rack_sizes[i], hw);
      i = j;
    }
  } else {
    for (const NodeGroup& g : spec.groups) {
      emit(g.name, g.racks, g.nodes_per_rack, g.hardware);
    }
  }
  return out.str();
}

}  // namespace mron::cluster
