// A slave node: CPU and disk servers plus memory bookkeeping.
//
// CPU is a capacity-capped processor-sharing server in "core-units"
// (1.0 = one physical core); each task stream is capped by the core-units
// its container's vcores entitle it to. Disk is a plain PS server in bytes.
// Memory is bookkept at two levels: *allocated* (container reservations,
// enforced by the scheduler) and *used* (task working sets, reported by the
// task models for utilization monitoring).
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "cluster/topology.h"
#include "common/check.h"
#include "common/units.h"
#include "sim/shared_server.h"

namespace mron::cluster {

class Node {
 public:
  Node(sim::Engine& engine, NodeId id, const NodeHardware& hw);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  // --- resource servers ---------------------------------------------------
  /// CPU work is in core-seconds; `cap` per stream is in core-units.
  [[nodiscard]] sim::SharedServer& cpu() { return cpu_; }
  /// Disk work is in bytes.
  [[nodiscard]] sim::SharedServer& disk() { return disk_; }
  /// NIC ingress (bytes). Transfers are managed by Fabric.
  [[nodiscard]] sim::SharedServer& nic_in() { return nic_in_; }

  // --- container memory accounting ---------------------------------------
  [[nodiscard]] Bytes memory_capacity() const { return memory_capacity_; }
  [[nodiscard]] Bytes memory_allocated() const { return memory_allocated_; }
  [[nodiscard]] Bytes memory_available() const {
    return memory_capacity_ - memory_allocated_;
  }
  [[nodiscard]] int vcores_capacity() const { return vcores_capacity_; }
  [[nodiscard]] int vcores_allocated() const { return vcores_allocated_; }
  [[nodiscard]] int vcores_available() const {
    return vcores_capacity_ - vcores_allocated_;
  }

  /// Reserve container resources. Callers must have checked availability.
  void allocate(Bytes memory, int vcores);
  void release(Bytes memory, int vcores);

  /// Observer fired after every allocate/release — the ResourceManager's
  /// free-resource index re-keys the node here, so the index stays exact
  /// even when test code mutates a node directly. At most one observer.
  using ResourceObserver = std::function<void(Node&)>;
  void set_resource_observer(ResourceObserver cb) {
    resource_observer_ = std::move(cb);
  }

  /// Observer fired whenever the node *does something* that can take it out
  /// of the idle state: a stream submitted to any of its servers, container
  /// memory allocated, or task working-set memory reported. The cluster
  /// monitor's dirty-set sampler listens here, so idle nodes cost it
  /// nothing per tick. Fires on every such action (not only on idle->active
  /// edges); the observer must be O(1) and idempotent. At most one
  /// observer; setting it rewires the servers' activity callbacks.
  using ActivityObserver = std::function<void(Node&)>;
  void set_activity_observer(ActivityObserver cb);

  // --- used-memory reporting (monitoring only) -----------------------------
  void add_used_memory(Bytes delta) {
    memory_used_ += delta;
    if (activity_observer_) activity_observer_(*this);
  }
  void sub_used_memory(Bytes delta) {
    memory_used_ -= delta;
    MRON_CHECK(memory_used_ >= Bytes(0));
  }
  [[nodiscard]] Bytes memory_used() const { return memory_used_; }

  /// CPU cap (in core-units) a container with `vcores` is entitled to.
  [[nodiscard]] double cpu_quota(int vcores) const {
    return static_cast<double>(vcores) * cpu_quota_per_vcore_;
  }

 private:
  NodeId id_;
  sim::SharedServer cpu_;
  sim::SharedServer disk_;
  sim::SharedServer nic_in_;
  Bytes memory_capacity_;
  Bytes memory_allocated_{0};
  Bytes memory_used_{0};
  int vcores_capacity_;
  int vcores_allocated_ = 0;
  double cpu_quota_per_vcore_;
  ResourceObserver resource_observer_;
  ActivityObserver activity_observer_;
};

}  // namespace mron::cluster
