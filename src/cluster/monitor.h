// Per-node resource sampling: the slave-monitor half of MRONLINE's monitor.
//
// Samples every node on a fixed period and publishes each window's
// utilizations into the flight recorder (gauges plus the whole-run
// occupancy series behind Figures 14-16). Utilizations are derived from the
// SharedServer busy integrals, so they reflect actual simulated contention,
// not declared allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.h"
#include "cluster/topology.h"
#include "sim/engine.h"

namespace mron::obs {
class Counter;
class Gauge;
class Series;
}  // namespace mron::obs

namespace mron::cluster {

/// Sampling period (sim seconds); also the recorder's sampling clock.
inline constexpr SimTime kMonitorPeriod = 1.0;
/// Above this node count the monitor publishes per-rack aggregate
/// gauges/series instead of per-node ones, keeping report and trace size
/// bounded at 1,000+ nodes. The 19-node testbed stays per-node.
inline constexpr int kMonitorNodeSeriesLimit = 64;

class ClusterMonitor {
 public:
  /// Publishes into the engine's recorder, which must be attached. With
  /// more than kMonitorNodeSeriesLimit nodes the published entities are
  /// racks (cluster.rackR.*, means over the rack's nodes), otherwise nodes
  /// (cluster.nodeN.*). Sampling is dirty-set driven: the monitor
  /// subscribes to every node's activity observer, and each tick touches
  /// only nodes that were marked active since they last sampled idle — a
  /// fully idle node costs zero, not even a compare, so the per-tick cost
  /// is O(active + entities) on any cluster size. The monitor owns the
  /// nodes' activity observers for its lifetime (at most one
  /// ClusterMonitor may watch a node set at a time).
  ClusterMonitor(sim::Engine& engine, std::vector<Node*> nodes,
                 const Topology& topo);
  ~ClusterMonitor();

  /// Arm the periodic tick. Call once; ticks stop when the engine has no
  /// real work left.
  void start();

 private:
  void sample();
  void publish(SimTime now);
  /// Activity-observer body: enroll node `i` in the dirty set and reset its
  /// integral baseline to the last tick (it has been idle — and therefore
  /// flat — since then, so the next window is not diluted by the idle gap).
  void mark_active(std::size_t i);
  /// Index of node `i`'s published entity (its rack, or itself).
  [[nodiscard]] std::size_t entity_of(std::size_t i) const;

  sim::Engine& engine_;
  std::vector<Node*> nodes_;
  const Topology& topo_;
  bool by_rack_;
  /// One window's sums per entity; zeroed each tick, so idle nodes
  /// contribute nothing (an idle node's window is exactly zero).
  struct Window {
    double cpu = 0.0;        ///< fraction of container core-units busy
    double disk = 0.0;       ///< fraction of disk bandwidth busy
    double net = 0.0;        ///< fraction of NIC ingress busy
    double mem_alloc = 0.0;  ///< allocated container memory / capacity
    double mem_used = 0.0;   ///< task working sets / capacity
  };
  std::vector<Window> windows_;
  /// Flight-recorder handles per entity, resolved once on the first tick
  /// (registry lookups are by name; the publish path must not re-do them).
  struct Handles {
    obs::Gauge* cpu = nullptr;
    obs::Gauge* disk = nullptr;
    obs::Gauge* net = nullptr;
    obs::Gauge* mem_alloc = nullptr;
    obs::Gauge* mem_used = nullptr;
    /// Whole-run occupancy timelines (the Figure 14-16 shapes), in the
    /// recorder's SeriesStore; downsampled, never wrapping.
    obs::Series* cpu_series = nullptr;
    obs::Series* disk_series = nullptr;
    obs::Series* net_series = nullptr;
  };
  std::vector<Handles> handles_;
  obs::Counter* samples_counter_ = nullptr;
  struct Integrals {
    double cpu = 0.0;
    double disk = 0.0;
    double net = 0.0;
    SimTime at = 0.0;
  };
  std::vector<Integrals> prev_;
  /// The dirty set: indices of nodes that may produce a non-zero window.
  /// Nodes enter via mark_active() (push-side, from the node's activity
  /// observer) and leave when a tick finds them fully idle again. Sorted
  /// before every traversal so each entity's sum adds its nodes in id
  /// order — bit-identical to a full walk (idle nodes contribute exact
  /// zeros, which no IEEE sum can see).
  std::vector<std::uint32_t> active_;
  std::vector<std::uint8_t> in_active_;  ///< membership flag per node
  SimTime last_tick_ = 0.0;
};

}  // namespace mron::cluster
