#include "cluster/node.h"

#include <utility>

namespace mron::cluster {

Node::Node(sim::Engine& engine, NodeId id, const NodeHardware& hw)
    : id_(id),
      cpu_(engine, hw.container_core_units(), {"node/cpu", id.value()}),
      disk_(engine, hw.disk_bandwidth.rate(), {"node/disk", id.value()},
            hw.disk_seek_penalty),
      nic_in_(engine, hw.nic_bandwidth.rate(), {"node/nic_in", id.value()}),
      memory_capacity_(hw.container_memory),
      vcores_capacity_(hw.container_vcores),
      cpu_quota_per_vcore_(hw.cpu_quota_per_vcore) {}

void Node::allocate(Bytes memory, int vcores) {
  MRON_CHECK_MSG(memory <= memory_available(),
                 "node " << id_ << " memory over-allocation");
  MRON_CHECK_MSG(vcores <= vcores_available(),
                 "node " << id_ << " vcore over-allocation");
  memory_allocated_ += memory;
  vcores_allocated_ += vcores;
  if (resource_observer_) resource_observer_(*this);
  if (activity_observer_) activity_observer_(*this);
}

void Node::set_activity_observer(ActivityObserver cb) {
  activity_observer_ = std::move(cb);
  if (activity_observer_) {
    // One thunk shared by all three servers: any stream submission marks
    // the whole node dirty.
    const auto mark = [this] {
      if (activity_observer_) activity_observer_(*this);
    };
    cpu_.set_activity_callback(mark);
    disk_.set_activity_callback(mark);
    nic_in_.set_activity_callback(mark);
  } else {
    cpu_.set_activity_callback({});
    disk_.set_activity_callback({});
    nic_in_.set_activity_callback({});
  }
}

void Node::release(Bytes memory, int vcores) {
  memory_allocated_ -= memory;
  vcores_allocated_ -= vcores;
  MRON_CHECK(memory_allocated_ >= Bytes(0));
  MRON_CHECK(vcores_allocated_ >= 0);
  if (resource_observer_) resource_observer_(*this);
}

}  // namespace mron::cluster
