#include "cluster/monitor.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::cluster {

ClusterMonitor::ClusterMonitor(sim::Engine& engine, std::vector<Node*> nodes,
                               const Topology& topo)
    : engine_(engine),
      nodes_(std::move(nodes)),
      topo_(topo),
      by_rack_(static_cast<int>(nodes_.size()) > kMonitorNodeSeriesLimit) {
  MRON_CHECK(engine.recorder() != nullptr);
  MRON_CHECK(static_cast<int>(nodes_.size()) == topo_.num_nodes());
  windows_.resize(by_rack_ ? static_cast<std::size_t>(topo_.num_racks())
                           : nodes_.size());
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

std::size_t ClusterMonitor::entity_of(std::size_t i) const {
  if (!by_rack_) return i;
  return static_cast<std::size_t>(
      topo_.rack_of(NodeId(static_cast<std::int64_t>(i))).value());
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
  engine_.schedule_daemon_after(kMonitorPeriod, [this] { sample(); });
}

void ClusterMonitor::sample() {
  const SimTime now = engine_.now();
  // Id order: each entity's sum adds its nodes in id order (racks are
  // contiguous id ranges), which is what makes publishing deterministic.
  std::sort(active_.begin(), active_.end());
  std::fill(windows_.begin(), windows_.end(), Window{});
  std::size_t kept = 0;
  for (const std::uint32_t idx : active_) {
    const std::size_t i = idx;
    Node& n = *nodes_[i];
    const double cpu = n.cpu().busy_integral();
    const double disk = n.disk().busy_integral();
    const double net = n.nic_in().busy_integral();
    // Fully idle again: flat integrals, no memory, no streams in flight.
    // Its window is all zeros; drop the node from the dirty set — nothing
    // can change for it until its activity observer fires again. (The
    // stream check matters: a stream submitted exactly at tick time has
    // not accrued integral yet but will by the next tick.)
    if (cpu == prev_[i].cpu && disk == prev_[i].disk && net == prev_[i].net &&
        n.memory_allocated() == Bytes(0) && n.memory_used() == Bytes(0) &&
        n.cpu().active() == 0 && n.disk().active() == 0 &&
        n.nic_in().active() == 0) {
      prev_[i].at = now;
      in_active_[i] = 0;
      continue;
    }
    Window& w = windows_[entity_of(i)];
    const double dt = now - prev_[i].at;
    if (dt > 0.0) {
      w.cpu += (cpu - prev_[i].cpu) / (n.cpu().capacity() * dt);
      w.disk += (disk - prev_[i].disk) / (n.disk().capacity() * dt);
      w.net += (net - prev_[i].net) / (n.nic_in().capacity() * dt);
    }
    w.mem_alloc += n.memory_allocated() / n.memory_capacity();
    w.mem_used += n.memory_used() / n.memory_capacity();
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
  if (!engine_.quiescent()) {
    engine_.schedule_daemon_after(kMonitorPeriod, [this] { sample(); });
  }
}

void ClusterMonitor::publish(SimTime now) {
  // Publish the window into the flight recorder: set each entity's gauges,
  // push its occupancy series, then flush the recorder so the pull-model
  // publishers push theirs. The monitor is the recorder's sampling clock:
  // every clock-driven SeriesStore series advances at its period.
  obs::Recorder& rec = *engine_.recorder();
  auto& reg = rec.metrics();
  auto& store = rec.series();
  if (handles_.empty()) {
    handles_.resize(windows_.size());
    for (std::size_t e = 0; e < handles_.size(); ++e) {
      const std::string prefix =
          by_rack_ ? "cluster.rack" + std::to_string(e) + "."
                   : "cluster.node" +
                         std::to_string(nodes_[e]->id().value()) + ".";
      Handles& h = handles_[e];
      h.cpu = &reg.gauge(prefix + "cpu_util");
      h.disk = &reg.gauge(prefix + "disk_util");
      h.net = &reg.gauge(prefix + "net_util");
      h.mem_alloc = &reg.gauge(prefix + "mem_alloc_frac");
      h.mem_used = &reg.gauge(prefix + "mem_used_frac");
      h.cpu_series = &store.series(prefix + "cpu_util");
      h.disk_series = &store.series(prefix + "disk_util");
      h.net_series = &store.series(prefix + "net_util");
    }
    samples_counter_ = &reg.counter("monitor.samples");
  }
  for (std::size_t e = 0; e < handles_.size(); ++e) {
    // A node is a rack of one: x / 1.0 is exact.
    const double size =
        by_rack_ ? static_cast<double>(topo_.rack_size(
                       RackId(static_cast<std::int64_t>(e))))
                 : 1.0;
    const Window& w = windows_[e];
    const Handles& h = handles_[e];
    const double cpu = w.cpu / size;
    const double disk = w.disk / size;
    const double net = w.net / size;
    h.cpu->set(cpu);
    h.disk->set(disk);
    h.net->set(net);
    h.mem_alloc->set(w.mem_alloc / size);
    h.mem_used->set(w.mem_used / size);
    // Whole-run occupancy timelines: pushed every tick (not change-only)
    // so the downsampling stride stays uniform across entities.
    h.cpu_series->push(now, cpu);
    h.disk_series->push(now, disk);
    h.net_series->push(now, net);
  }
  samples_counter_->add(1.0);
  rec.flush();  // pull-model publishers (RM, DFS, AM, engine queue)
}

}  // namespace mron::cluster
