#include "cluster/fabric.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace mron::cluster {

Fabric::Fabric(sim::Engine& engine, const ClusterSpec& spec,
               const Topology& topo, std::vector<Node*> nodes)
    : engine_(engine),
      topo_(topo),
      nodes_(std::move(nodes)),
      inter_rack_factor_(spec.inter_rack_factor) {
  MRON_CHECK(static_cast<int>(nodes_.size()) == topo_.num_nodes());
  for (int r = 0; r < topo_.num_racks(); ++r) {
    // Uplink capacity: NIC rate scaled by the oversubscription factor times
    // the rack size — i.e. the ToR switch can sustain a fraction of the
    // rack's aggregate demand. Racks are homogeneous (topology.h), so the
    // rack's hardware gives the one NIC rate that applies.
    const RackId rack(r);
    const double cap = topo_.rack_hardware(rack).nic_bandwidth.rate() *
                       inter_rack_factor_ *
                       static_cast<double>(topo_.rack_size(rack));
    rack_uplinks_.push_back(std::make_unique<sim::SharedServer>(
        engine_, cap, sim::ServerName("rack/uplink", r)));
  }
}

std::size_t Fabric::uplink_table_bytes() const {
  std::size_t bytes = 0;
  for (const auto& uplink : rack_uplinks_) bytes += uplink->table_bytes();
  return bytes;
}

void Fabric::transfer(NodeId src, NodeId dst, Bytes size, Done done) {
  MRON_CHECK(src.valid() && dst.valid());
  MRON_CHECK(done);
  if (src == dst || size <= Bytes(0)) {
    engine_.schedule_after(0.0, std::move(done));
    return;
  }
  Node& receiver = *nodes_[static_cast<std::size_t>(dst.value())];
  if (topo_.same_rack(src, dst)) {
    receiver.nic_in().submit(size.as_double(), std::move(done));
    return;
  }
  inter_rack_bytes_ += size.as_double();
  // Cross-rack: stream through the destination rack's uplink AND the
  // receiver NIC; completion is the later of the two.
  std::int32_t slot = free_join_;
  if (slot >= 0) {
    free_join_ = joins_[static_cast<std::size_t>(slot)].next_free;
  } else {
    slot = static_cast<std::int32_t>(joins_.size());
    joins_.emplace_back();
  }
  Join& join = joins_[static_cast<std::size_t>(slot)];
  join.remaining = 2;
  join.done = std::move(done);
  auto& uplink =
      *rack_uplinks_[static_cast<std::size_t>(topo_.rack_of(dst).value())];
  uplink.submit(size.as_double(), [this, slot] { join_leg_done(slot); });
  receiver.nic_in().submit(size.as_double(),
                           [this, slot] { join_leg_done(slot); });
}

void Fabric::join_leg_done(std::int32_t slot) {
  Join& join = joins_[static_cast<std::size_t>(slot)];
  if (--join.remaining > 0) return;
  Done done = std::move(join.done);
  join.next_free = free_join_;
  free_join_ = slot;
  done();
}

CopyId Fabric::transfer_capped(NodeId src, NodeId dst, Bytes size, double cap,
                               Done done) {
  MRON_CHECK(src.valid() && dst.valid());
  MRON_CHECK(done);
  MRON_CHECK(cap > 0.0);
  const CopyId id(next_copy_id_++);
  CopyState& st = copies_[id.value()];
  st.done = std::move(done);
  st.dst = dst;
  if (src == dst || size <= Bytes(0)) {
    st.remaining = 1;
    st.has_event = true;
    st.event = engine_.schedule_after(
        0.0, [this, v = id.value()] { copy_leg_done(v); });
    return id;
  }
  Node& receiver = *nodes_[static_cast<std::size_t>(dst.value())];
  const auto leg = [this, v = id.value()] { copy_leg_done(v); };
  if (topo_.same_rack(src, dst)) {
    st.remaining = 1;
    st.has_nic = true;
    st.nic = receiver.nic_in().submit(size.as_double(), cap, leg);
    return id;
  }
  inter_rack_bytes_ += size.as_double();
  st.remaining = 2;
  st.uplink_rack = topo_.rack_of(dst).value();
  st.uplink = rack_uplinks_[static_cast<std::size_t>(st.uplink_rack)]->submit(
      size.as_double(), cap, leg);
  st.has_nic = true;
  st.nic = receiver.nic_in().submit(size.as_double(), cap, leg);
  return id;
}

void Fabric::copy_leg_done(std::int64_t id) {
  const auto it = copies_.find(id);
  if (it == copies_.end()) return;  // cancelled while this leg completed
  if (--it->second.remaining > 0) return;
  Done done = std::move(it->second.done);
  copies_.erase(it);
  done();
}

void Fabric::cancel_transfer(CopyId id) {
  const auto it = copies_.find(id.value());
  if (it == copies_.end()) return;
  CopyState& st = it->second;
  if (st.has_event) engine_.cancel(st.event);
  if (st.has_nic) {
    nodes_[static_cast<std::size_t>(st.dst.value())]->nic_in().cancel(st.nic);
  }
  if (st.uplink_rack >= 0) {
    rack_uplinks_[static_cast<std::size_t>(st.uplink_rack)]->cancel(st.uplink);
  }
  copies_.erase(it);
}

}  // namespace mron::cluster
