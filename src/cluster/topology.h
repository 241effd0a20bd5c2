// Cluster shape: racks, nodes, and their hardware rates.
//
// Defaults reproduce the paper's testbed: 19 nodes (1 master + 18 slaves)
// in two racks of 9 and 10, each slave with two quad-core Xeons (8 physical
// cores), 8 GB RAM, one SATA disk, and a 1 Gbps NIC. YARN exposes 28 vcores
// and 6 GB per node for containers (4 vcores / 2 GB reserved for the HDFS
// datanode and node-manager daemons).
//
// A ClusterSpec is a list of node groups (the testbed is one group of two
// racks): each group contributes whole racks of identical nodes, so every
// rack stays homogeneous (the ToR uplink model needs one NIC rate per rack)
// while the cluster as a whole can mix hardware classes (cluster_spec.h
// parses the `--cluster=SPEC` grammar into this form).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/strong_id.h"
#include "common/units.h"

namespace mron::cluster {

struct NodeTag {};
using NodeId = StrongId<NodeTag>;
struct RackTag {};
using RackId = StrongId<RackTag>;

/// Hardware of one node class; a cluster carries one per NodeGroup.
struct NodeHardware {
  // CPU. `total_vcores` is yarn.nodemanager total; `container_vcores` is
  // what the scheduler may hand to containers. Physical core throughput is
  // normalized to 1.0 "core-units"; a vcore is worth
  // physical_cores / total_vcores core-units (the paper's example: 32
  // vcores on an 8-core box -> 1/4 core each).
  int physical_cores = 8;
  int total_vcores = 32;
  int container_vcores = 28;

  // Memory per node.
  Bytes node_memory = gibibytes(8);
  Bytes container_memory = gibibytes(6);

  // CPU enforcement model: one vcore entitles a container to a CFS-quota-
  // style cap of `cpu_quota_per_vcore` physical-core units; the node's
  // aggregate container CPU is still bounded by container_core_units(), so
  // vcores act as admission-control currency while contention is resolved
  // by fair sharing. (YARN's strict cgroup enforcement mode.)
  double cpu_quota_per_vcore = 1.0;

  // Disk: one SATA spindle, sequential-ish bandwidth shared across streams,
  // with throughput degrading under concurrency (seek thrashing): effective
  // bandwidth = disk_bandwidth / (1 + disk_seek_penalty * (streams - 1)).
  BytesPerSec disk_bandwidth = mib_per_sec(90);
  double disk_seek_penalty = 0.06;

  // Per-node NIC.
  BytesPerSec nic_bandwidth = gbit_per_sec(1);

  // CPU actually consumed by the co-located HDFS datanode, node manager,
  // and shuffle service, subtracted from what containers can burn.
  double daemon_core_reserve = 1.0;

  /// Core-units available to containers on one node.
  [[nodiscard]] double container_core_units() const {
    return static_cast<double>(physical_cores) *
               static_cast<double>(container_vcores) /
               static_cast<double>(total_vcores) -
           daemon_core_reserve;
  }
  /// Core-units represented by one vcore.
  [[nodiscard]] double core_units_per_vcore() const {
    return static_cast<double>(physical_cores) /
           static_cast<double>(total_vcores);
  }

  bool operator==(const NodeHardware&) const = default;
};

/// One hardware class contributing `racks` whole racks of `nodes_per_rack`
/// identical nodes. Node ids are assigned group by group, rack by rack, so
/// every rack is a contiguous, homogeneous id range.
struct NodeGroup {
  std::string name;  ///< label for spec rendering ("std", "bigmem", ...)
  int racks = 1;
  int nodes_per_rack = 0;
  NodeHardware hardware;
};

/// A cluster is its node groups: racks and ids follow `groups` in order.
/// The default is the paper's testbed, one group of 2 racks x 9 nodes with
/// the default NodeHardware.
struct ClusterSpec {
  std::vector<NodeGroup> groups = {NodeGroup{"", 2, 9, NodeHardware{}}};

  // Factor applied to cross-rack streams (top-of-rack uplink
  // oversubscription). Cluster-wide, not per group.
  double inter_rack_factor = 0.5;

  /// Slaves over every group.
  [[nodiscard]] int total_slaves() const;
};

/// Static placement info: which rack each node lives in, which hardware
/// class it runs, and where each rack's contiguous id range starts. Racks
/// are contiguous by construction (ids are assigned group by group, rack by
/// rack), which is what makes O(1) rack-range arithmetic — DFS placement,
/// rack-local scheduling — valid.
class Topology {
 public:
  explicit Topology(const ClusterSpec& spec);

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(rack_of_.size());
  }
  [[nodiscard]] RackId rack_of(NodeId node) const;
  [[nodiscard]] int num_racks() const {
    return static_cast<int>(racks_.size());
  }
  [[nodiscard]] bool same_rack(NodeId a, NodeId b) const {
    return rack_of(a) == rack_of(b);
  }
  /// First node id in `rack` (racks are contiguous id ranges).
  [[nodiscard]] int rack_first_node(RackId rack) const;
  [[nodiscard]] int rack_size(RackId rack) const;
  /// Hardware of `node` / of every node in `rack` (racks are homogeneous).
  [[nodiscard]] const NodeHardware& hardware(NodeId node) const;
  [[nodiscard]] const NodeHardware& rack_hardware(RackId rack) const;
  [[nodiscard]] std::vector<NodeId> nodes_in_rack(RackId rack) const;
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

 private:
  struct RackInfo {
    int first_node = 0;
    int size = 0;
    int hardware = 0;  ///< index into hardware_
  };

  std::vector<RackId> rack_of_;  // indexed by node id
  std::vector<RackInfo> racks_;
  std::vector<NodeHardware> hardware_;
};

}  // namespace mron::cluster
