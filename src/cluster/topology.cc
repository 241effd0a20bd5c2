#include "cluster/topology.h"

#include "common/check.h"

namespace mron::cluster {

int ClusterSpec::total_slaves() const {
  int total = 0;
  for (const NodeGroup& g : groups) total += g.racks * g.nodes_per_rack;
  return total;
}

Topology::Topology(const ClusterSpec& spec) {
  // Each group contributes whole racks of one hardware class; ids are
  // assigned group by group so every rack is contiguous.
  int total = 0;
  for (const NodeGroup& g : spec.groups) {
    MRON_CHECK_MSG(g.racks >= 1 && g.nodes_per_rack >= 1,
                   "group '" << g.name << "' needs racks >= 1 and nodes >= 1");
    const int hw = static_cast<int>(hardware_.size());
    hardware_.push_back(g.hardware);
    for (int r = 0; r < g.racks; ++r) {
      const int rack_id = static_cast<int>(racks_.size());
      racks_.push_back(RackInfo{total, g.nodes_per_rack, hw});
      for (int i = 0; i < g.nodes_per_rack; ++i) {
        rack_of_.emplace_back(rack_id);
        ++total;
      }
    }
  }
  MRON_CHECK_MSG(total > 0, "cluster spec has no nodes");
}

RackId Topology::rack_of(NodeId node) const {
  MRON_CHECK(node.valid() && node.value() < num_nodes());
  return rack_of_[static_cast<std::size_t>(node.value())];
}

int Topology::rack_first_node(RackId rack) const {
  MRON_CHECK(rack.valid() && rack.value() < num_racks());
  return racks_[static_cast<std::size_t>(rack.value())].first_node;
}

int Topology::rack_size(RackId rack) const {
  MRON_CHECK(rack.valid() && rack.value() < num_racks());
  return racks_[static_cast<std::size_t>(rack.value())].size;
}

const NodeHardware& Topology::hardware(NodeId node) const {
  return rack_hardware(rack_of(node));
}

const NodeHardware& Topology::rack_hardware(RackId rack) const {
  MRON_CHECK(rack.valid() && rack.value() < num_racks());
  const RackInfo& r = racks_[static_cast<std::size_t>(rack.value())];
  return hardware_[static_cast<std::size_t>(r.hardware)];
}

std::vector<NodeId> Topology::nodes_in_rack(RackId rack) const {
  MRON_CHECK(rack.valid() && rack.value() < num_racks());
  const RackInfo& r = racks_[static_cast<std::size_t>(rack.value())];
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(r.size));
  for (int n = r.first_node; n < r.first_node + r.size; ++n) {
    out.emplace_back(n);
  }
  return out;
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(num_nodes()));
  for (int n = 0; n < num_nodes(); ++n) out.emplace_back(n);
  return out;
}

}  // namespace mron::cluster
