#include "cluster/monitor.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::cluster {

ClusterMonitor::ClusterMonitor(sim::Engine& engine, std::vector<Node*> nodes,
                               SimTime period, const Topology* topo,
                               int node_series_limit)
    : engine_(engine),
      nodes_(std::move(nodes)),
      period_(period),
      topo_(topo),
      node_series_limit_(node_series_limit) {
  MRON_CHECK(period_ > 0.0);
  MRON_CHECK(node_series_limit_ >= 1);
  if (topo_ != nullptr) {
    MRON_CHECK(static_cast<int>(nodes_.size()) == topo_->num_nodes());
  }
  latest_.resize(nodes_.size());
  prev_.resize(nodes_.size());
  in_active_.assign(nodes_.size(), 0);
  // Subscribe to every node's activity stream: the push side of the dirty
  // set. From here on, a node that does nothing is never visited again.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_activity_observer(
        [this, i](Node&) { mark_active(i); });
  }
}

ClusterMonitor::~ClusterMonitor() {
  // The observers capture `this`; nodes may outlive the monitor.
  for (Node* n : nodes_) n->set_activity_observer({});
}

void ClusterMonitor::mark_active(std::size_t i) {
  if (in_active_[i] != 0) return;
  in_active_[i] = 1;
  active_.push_back(static_cast<std::uint32_t>(i));
  // The node sat idle (flat integrals, zero memory) since its last visit,
  // so rebasing the window at the last tick loses nothing and keeps the
  // upcoming utilization window undiluted by the idle gap.
  Node& n = *nodes_[i];
  prev_[i] = Integrals{n.cpu().busy_integral(), n.disk().busy_integral(),
                       n.nic_in().busy_integral(), last_tick_};
}

void ClusterMonitor::start() {
  if (running_) return;
  running_ = true;
  last_tick_ = engine_.now();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    prev_[i] = Integrals{nodes_[i]->cpu().busy_integral(),
                         nodes_[i]->disk().busy_integral(),
                         nodes_[i]->nic_in().busy_integral(), engine_.now()};
    // Seed the dirty set with nodes already busy at start time (streams in
    // flight or memory held before the monitor began watching).
    if (in_active_[i] == 0 &&
        (nodes_[i]->cpu().active() > 0 || nodes_[i]->disk().active() > 0 ||
         nodes_[i]->nic_in().active() > 0 ||
         nodes_[i]->memory_allocated() != Bytes(0) ||
         nodes_[i]->memory_used() != Bytes(0))) {
      in_active_[i] = 1;
      active_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // The first tick is scheduled from setup context; later re-arms happen
  // inside the tick callback and inherit its category automatically.
  HOST_PROF_CATEGORY(kMonitor);
  pending_ = engine_.schedule_daemon_after(period_, [this] { sample(); });
}

void ClusterMonitor::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(pending_);
}

void ClusterMonitor::sample() {
  const SimTime now = engine_.now();
  // Id order: determinism of every downstream sum and scan.
  std::sort(active_.begin(), active_.end());
  std::size_t kept = 0;
  for (const std::uint32_t idx : active_) {
    const std::size_t i = idx;
    Node& n = *nodes_[i];
    const double cpu = n.cpu().busy_integral();
    const double disk = n.disk().busy_integral();
    const double net = n.nic_in().busy_integral();
    // Fully idle again: flat integrals, no memory, no streams in flight.
    // Record the all-zero window and drop the node from the dirty set —
    // nothing can change for it until its activity observer fires again.
    // (The stream check matters: a stream submitted exactly at tick time
    // has not accrued integral yet but will by the next tick.)
    if (cpu == prev_[i].cpu && disk == prev_[i].disk && net == prev_[i].net &&
        n.memory_allocated() == Bytes(0) && n.memory_used() == Bytes(0) &&
        n.cpu().active() == 0 && n.disk().active() == 0 &&
        n.nic_in().active() == 0) {
      latest_[i] = NodeSample{};
      latest_[i].time = now;
      prev_[i].at = now;
      in_active_[i] = 0;
      continue;
    }
    const double dt = now - prev_[i].at;
    NodeSample s;
    s.time = now;
    if (dt > 0.0) {
      s.cpu_util = (cpu - prev_[i].cpu) / (n.cpu().capacity() * dt);
      s.disk_util = (disk - prev_[i].disk) / (n.disk().capacity() * dt);
      s.net_util = (net - prev_[i].net) / (n.nic_in().capacity() * dt);
    }
    s.mem_alloc_frac = n.memory_allocated() / n.memory_capacity();
    s.mem_used_frac = n.memory_used() / n.memory_capacity();
    latest_[i] = s;
    prev_[i] = Integrals{cpu, disk, net, now};
    active_[kept++] = idx;
  }
  active_.resize(kept);
  last_tick_ = now;
  publish(now);
  // Re-arm only while the simulation has real work pending: a quiescent
  // engine means every job finished, and a self-perpetuating sampler would
  // keep Engine::run() from ever draining. Daemon scheduling keeps this
  // ticker and the other periodic services (heartbeat watchdog,
  // speculation scan) from counting each other as work.
  if (running_ && !engine_.quiescent()) {
    pending_ = engine_.schedule_daemon_after(period_, [this] { sample(); });
  }
}

void ClusterMonitor::publish(SimTime now) {
  // Publish the window into the flight recorder: set each entity's gauges,
  // push its occupancy series, then flush the recorder so the pull-model
  // publishers push theirs. The monitor is the recorder's sampling clock:
  // every clock-driven SeriesStore series advances at its period. Beyond
  // the node-series limit the per-entity handles are per *rack* (means over
  // the rack's nodes), bounding recorder footprint on 1,000+-node clusters.
  auto* rec = engine_.recorder();
  if (rec == nullptr) return;
  auto& reg = rec->metrics();
  const bool by_rack = rack_aggregated();
  const std::size_t entities =
      by_rack ? static_cast<std::size_t>(topo_->num_racks()) : nodes_.size();
  if (node_gauges_.empty()) {
    node_gauges_.resize(entities);
    for (std::size_t i = 0; i < entities; ++i) {
      const std::string prefix =
          by_rack ? "cluster.rack" + std::to_string(i) + "."
                  : "cluster.node" +
                        std::to_string(nodes_[i]->id().value()) + ".";
      node_gauges_[i].cpu = &reg.gauge(prefix + "cpu_util");
      node_gauges_[i].disk = &reg.gauge(prefix + "disk_util");
      node_gauges_[i].net = &reg.gauge(prefix + "net_util");
      node_gauges_[i].mem_alloc = &reg.gauge(prefix + "mem_alloc_frac");
      node_gauges_[i].mem_used = &reg.gauge(prefix + "mem_used_frac");
      auto& store = rec->series();
      node_gauges_[i].cpu_series = &store.series(prefix + "cpu_util");
      node_gauges_[i].disk_series = &store.series(prefix + "disk_util");
      node_gauges_[i].net_series = &store.series(prefix + "net_util");
    }
    samples_counter_ = &reg.counter("monitor.samples");
  }
  if (by_rack) {
    // Sum per rack over the dirty set only: idle nodes hold exact-zero
    // samples, and adding 0.0 never changes an IEEE sum, so skipping them
    // is bit-identical to the full walk. sample() just sorted active_, and
    // racks are contiguous id ranges, so within-rack addition order is the
    // id order the full walk used.
    rack_scratch_.assign(entities, NodeSample{});
    for (const std::uint32_t idx : active_) {
      const NodeSample& ns = latest_[idx];
      NodeSample& acc =
          rack_scratch_[static_cast<std::size_t>(
              topo_->rack_of(NodeId(static_cast<std::int64_t>(idx)))
                  .value())];
      acc.cpu_util += ns.cpu_util;
      acc.disk_util += ns.disk_util;
      acc.net_util += ns.net_util;
      acc.mem_alloc_frac += ns.mem_alloc_frac;
      acc.mem_used_frac += ns.mem_used_frac;
    }
    for (std::size_t i = 0; i < entities; ++i) {
      NodeSample s = rack_scratch_[i];
      const double denom =
          static_cast<double>(topo_->rack_size(RackId(
              static_cast<std::int64_t>(i))));
      s.cpu_util /= denom;
      s.disk_util /= denom;
      s.net_util /= denom;
      s.mem_alloc_frac /= denom;
      s.mem_used_frac /= denom;
      node_gauges_[i].cpu->set(s.cpu_util);
      node_gauges_[i].disk->set(s.disk_util);
      node_gauges_[i].net->set(s.net_util);
      node_gauges_[i].mem_alloc->set(s.mem_alloc_frac);
      node_gauges_[i].mem_used->set(s.mem_used_frac);
      // Whole-run occupancy timelines: pushed every tick (not change-only)
      // so the downsampling stride stays uniform across entities.
      node_gauges_[i].cpu_series->push(now, s.cpu_util);
      node_gauges_[i].disk_series->push(now, s.disk_util);
      node_gauges_[i].net_series->push(now, s.net_util);
    }
  } else {
    for (std::size_t i = 0; i < entities; ++i) {
      const NodeSample& s = latest_[i];
      node_gauges_[i].cpu->set(s.cpu_util);
      node_gauges_[i].disk->set(s.disk_util);
      node_gauges_[i].net->set(s.net_util);
      node_gauges_[i].mem_alloc->set(s.mem_alloc_frac);
      node_gauges_[i].mem_used->set(s.mem_used_frac);
      node_gauges_[i].cpu_series->push(now, s.cpu_util);
      node_gauges_[i].disk_series->push(now, s.disk_util);
      node_gauges_[i].net_series->push(now, s.net_util);
    }
  }
  samples_counter_->add(1.0);
  rec->flush();  // pull-model publishers (SharedServer gauges)
}

const NodeSample& ClusterMonitor::latest(NodeId node) const {
  MRON_CHECK(node.valid() &&
             node.value() < static_cast<std::int64_t>(latest_.size()));
  return latest_[static_cast<std::size_t>(node.value())];
}

NodeSample ClusterMonitor::cluster_average() const {
  NodeSample avg;
  if (latest_.empty()) return avg;
  // Only dirty-set nodes can hold non-zero samples (an idle node's last
  // visit wrote exact zeros), so summing them in id order reproduces the
  // full walk's result bit for bit.
  std::vector<std::uint32_t> sorted(active_);
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint32_t idx : sorted) {
    const NodeSample& s = latest_[idx];
    avg.cpu_util += s.cpu_util;
    avg.disk_util += s.disk_util;
    avg.net_util += s.net_util;
    avg.mem_alloc_frac += s.mem_alloc_frac;
    avg.mem_used_frac += s.mem_used_frac;
  }
  const double n = static_cast<double>(latest_.size());
  avg.cpu_util /= n;
  avg.disk_util /= n;
  avg.net_util /= n;
  avg.mem_alloc_frac /= n;
  avg.mem_used_frac /= n;
  avg.time = last_tick_;
  return avg;
}

std::vector<NodeId> ClusterMonitor::hot_nodes(double threshold) const {
  std::vector<NodeId> out;
  // Idle nodes hold zero windows and can never clear a hot threshold;
  // scanning the dirty set in id order matches the full walk's output.
  std::vector<std::uint32_t> sorted(active_);
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint32_t i : sorted) {
    if (latest_[i].disk_util > threshold || latest_[i].net_util > threshold) {
      out.push_back(nodes_[i]->id());
    }
  }
  return out;
}

}  // namespace mron::cluster
