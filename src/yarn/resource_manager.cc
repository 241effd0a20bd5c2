#include "yarn/resource_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::yarn {

ResourceManager::ResourceManager(sim::Engine& engine,
                                 const cluster::Topology& topo,
                                 std::vector<cluster::Node*> nodes,
                                 std::unique_ptr<SchedulingPolicy> policy)
    : engine_(engine),
      topo_(topo),
      nodes_(std::move(nodes)),
      policy_(std::move(policy)) {
  MRON_CHECK(policy_ != nullptr);
  MRON_CHECK(static_cast<int>(nodes_.size()) == topo_.num_nodes());
  alive_.assign(nodes_.size(), true);
  silent_since_.assign(nodes_.size(), 0.0);
  // Free-resource index: every node starts alive; the observer keeps the
  // node's entry keyed by its *current* free memory from here on.
  free_by_rack_.resize(static_cast<std::size_t>(topo_.num_racks()));
  indexed_key_.resize(nodes_.size());
  for (auto* n : nodes_) {
    index_insert(*n);
    cluster_memory_capacity_ += n->memory_capacity();
    ++vcore_capacity_histogram_[n->vcores_capacity()];
    n->set_resource_observer(
        [this](cluster::Node& nd) { on_node_resources_changed(nd); });
  }
  // Pull-model publishing (recorder.h's contract for hot components): the
  // request/allocate/release paths fire per container, so instead of
  // writing gauges there, the sampling clock reads the queue/allocation
  // state once per tick — and stamps the whole-run container timeline.
  if (auto* rec = engine_.recorder()) {
    alloc_node_local_ = &rec->metrics().counter("yarn.alloc.node_local");
    alloc_rack_local_ = &rec->metrics().counter("yarn.alloc.rack_local");
    alloc_any_ = &rec->metrics().counter("yarn.alloc.any");
    alloc_index_probes_ = &rec->metrics().counter("yarn.alloc.index_probes");
    auto* pending_gauge = &rec->metrics().gauge("yarn.pending_requests");
    auto* live_gauge = &rec->metrics().gauge("yarn.live_containers");
    auto* pending_series = &rec->series().series("yarn.pending_requests");
    auto* live_series = &rec->series().series("yarn.live_containers");
    rec->add_flush_hook(
        [this, pending_gauge, live_gauge, pending_series, live_series] {
          const auto pending = static_cast<double>(pending_requests());
          const auto live = static_cast<double>(live_containers_);
          pending_gauge->set(pending);
          live_gauge->set(live);
          pending_series->push(engine_.now(), pending);
          live_series->push(engine_.now(), live);
        });
  }
}

ResourceManager::~ResourceManager() {
  // Nodes may outlive this RM (test fixtures rebuild the RM over the same
  // nodes); leave no dangling observer behind.
  for (auto* n : nodes_) n->set_resource_observer({});
}

void ResourceManager::fail_node(cluster::NodeId node) {
  MRON_CHECK(node.valid() &&
             node.value() < static_cast<std::int64_t>(alive_.size()));
  auto flag = alive_.begin() + node.value();
  if (!*flag) return;
  index_erase(this->node(node));  // dead nodes leave the free index
  *flag = false;
  silent_.erase(node.value());
  if (!responsive_.empty()) {
    responsive_[static_cast<std::size_t>(node.value())] = false;
  }
  // Reclaim every container granted on the dead node *before* telling the
  // AMs: their recovery paths re-request capacity immediately, and the
  // node's memory/vcores must already be accounted free (on other nodes)
  // by then. The AM's own release_container for these ids becomes a no-op.
  std::size_t reclaimed = 0;
  for (auto it = containers_.begin(); it != containers_.end();) {
    if (it->second.node != node) {
      ++it;
      continue;
    }
    const LiveContainer& c = it->second;
    // The node is dead: its observer re-key is a no-op, this is pure
    // bookkeeping so the capacity is accounted free elsewhere.
    this->node(c.node).release(c.resource.memory, c.resource.vcores);
    auto app_it = apps_.find(c.app);
    MRON_CHECK(app_it != apps_.end());
    app_it->second.allocated_memory -= c.resource.memory;
    MRON_CHECK(app_it->second.allocated_memory >= Bytes(0));
    MRON_CHECK(live_containers_ > 0);
    --live_containers_;
    ++reclaimed;
    it = containers_.erase(it);
  }
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("yarn.nodes_lost").add(1.0);
    if (reclaimed > 0) {
      rec->metrics()
          .counter("yarn.containers_reclaimed")
          .add(static_cast<double>(reclaimed));
    }
  }
  // Subscribers may release containers and issue fresh requests
  // re-entrantly; copy the list to stay iterator-safe.
  const auto subscribers = failure_subscribers_;
  for (const auto& cb : subscribers) cb(node);
  trigger_schedule();
}

void ResourceManager::enable_heartbeats(SimTime period, SimTime timeout) {
  MRON_CHECK(period > 0.0 && timeout > 0.0);
  heartbeat_period_ = period;
  heartbeat_timeout_ = timeout;
  responsive_.assign(nodes_.size(), true);
  last_heartbeat_.assign(nodes_.size(), engine_.now());
  silent_.clear();
  silent_since_.assign(nodes_.size(), 0.0);
  last_tick_ = engine_.now();
  if (!heartbeats_enabled_) {
    heartbeats_enabled_ = true;
    // The watchdog is RM work even when armed from the fault injector.
    HOST_PROF_CATEGORY(kYarn);
    engine_.schedule_daemon_after(heartbeat_period_,
                                  [this] { heartbeat_tick(); });
  }
}

void ResourceManager::heartbeat_tick() {
  const SimTime now = engine_.now();
  // Only the silent set needs attention: every responsive node's heartbeat
  // is implicitly refreshed by advancing last_tick_ below, so the tick is
  // O(silent nodes) instead of two O(n) sweeps. The set is ascending, the
  // same order the legacy full scan visited nodes in; iterate a copy since
  // fail_node() erases the declared node re-entrantly.
  const std::vector<std::int64_t> silent(silent_.begin(), silent_.end());
  for (const std::int64_t v : silent) {
    const auto i = static_cast<std::size_t>(v);
    if (!alive_[i]) continue;  // already declared lost
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("yarn.heartbeats_missed").add(1.0);
    }
    if (now - silent_since_[i] >= heartbeat_timeout_) {
      fail_node(cluster::NodeId(v));
    }
  }
  last_tick_ = now;
  // Same guard as the cluster monitor — a self-perpetuating watchdog would
  // keep Engine::run() from ever draining — except that a silent node
  // awaiting its death declaration *is* pending work: the declaration is
  // what unblocks the AMs, so the watchdog must outlive an otherwise-idle
  // engine until it fires. Daemon scheduling keeps the watchdog and the
  // other periodic services from counting each other as work. The silent
  // set holds exactly the unresponsive-but-alive nodes, so "a declaration
  // is pending" is one emptiness check.
  if (!engine_.quiescent() || !silent_.empty()) {
    engine_.schedule_daemon_after(heartbeat_period_,
                                  [this] { heartbeat_tick(); });
  }
}

void ResourceManager::mark_node_unresponsive(cluster::NodeId node) {
  MRON_CHECK(node.valid() &&
             node.value() < static_cast<std::int64_t>(alive_.size()));
  if (!heartbeats_enabled_) {
    // No watchdog to notice the silence — fail-stop right away (the
    // legacy direct-injection path used by tests).
    fail_node(node);
    return;
  }
  const auto i = static_cast<std::size_t>(node.value());
  if (!responsive_[i]) return;  // already silent (or dead)
  responsive_[i] = false;
  if (alive_[i]) {
    silent_.insert(node.value());
    // The silence is measured from the node's last heartbeat: the most
    // recent watchdog tick, unless the node was enabled/recovered after it.
    silent_since_[i] = std::max(last_heartbeat_[i], last_tick_);
  }
}

void ResourceManager::recover_node(cluster::NodeId node) {
  MRON_CHECK(node.valid() &&
             node.value() < static_cast<std::int64_t>(alive_.size()));
  const auto i = static_cast<std::size_t>(node.value());
  if (!responsive_.empty()) {
    responsive_[i] = true;
    last_heartbeat_[i] = engine_.now();
    silent_.erase(node.value());
  }
  if (alive_[i]) return;  // transient blip, never declared lost
  alive_[i] = true;
  index_insert(this->node(node));  // back into the free index
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("yarn.nodes_recovered").add(1.0);
  }
  // Same re-entrancy discipline as fail_node: subscribers (the DFS
  // restoring replicas, parked readers resuming) may schedule work.
  const auto subscribers = recovery_subscribers_;
  for (const auto& cb : subscribers) cb(node);
  trigger_schedule();
}

bool ResourceManager::node_alive(cluster::NodeId node) const {
  MRON_CHECK(node.valid() &&
             node.value() < static_cast<std::int64_t>(alive_.size()));
  return alive_[static_cast<std::size_t>(node.value())];
}

void ResourceManager::subscribe_node_failures(NodeFailureCb cb) {
  MRON_CHECK(cb != nullptr);
  failure_subscribers_.push_back(std::move(cb));
}

void ResourceManager::subscribe_node_recoveries(NodeFailureCb cb) {
  MRON_CHECK(cb != nullptr);
  recovery_subscribers_.push_back(std::move(cb));
}

AppId ResourceManager::register_app(const std::string& name) {
  const AppId id = app_ids_.next();
  AppState state;
  state.name = name;
  state.submit_order = next_submit_order_++;
  state.live = true;
  apps_.emplace(id, std::move(state));
  return id;
}

void ResourceManager::unregister_app(AppId app) {
  auto it = apps_.find(app);
  MRON_CHECK(it != apps_.end());
  MRON_CHECK_MSG(it->second.allocated_memory == Bytes(0),
                 "app " << it->second.name
                        << " unregistered with live containers");
  apps_.erase(it);
}

RequestId ResourceManager::request_container(
    AppId app, Resource resource, std::vector<cluster::NodeId> preferred,
    AllocationCb on_allocated, obs::CpNode cp_from, obs::Blame cp_blame) {
  auto it = apps_.find(app);
  MRON_CHECK_MSG(it != apps_.end(), "request from unknown app " << app);
  MRON_CHECK(resource.memory > Bytes(0) && resource.vcores >= 1);
  MRON_CHECK(on_allocated != nullptr);
  const RequestId id = request_ids_.next();
  PendingRequest req{id, resource, std::move(preferred),
                     std::move(on_allocated)};
  req.cp_from = cp_from;
  req.cp_blame = cp_blame;
  it->second.queue.push_back(std::move(req));
  trigger_schedule();
  return id;
}

void ResourceManager::cancel_request(RequestId id) {
  for (auto& [app_id, app] : apps_) {
    auto it = std::find_if(app.queue.begin(), app.queue.end(),
                           [id](const PendingRequest& r) { return r.id == id; });
    if (it != app.queue.end()) {
      app.queue.erase(it);
      return;
    }
  }
}

void ResourceManager::release_container(const Container& container) {
  // A container the RM reclaimed when its node died is already fully
  // unaccounted; the AM's release is late cleanup, not an error.
  if (containers_.erase(container.id) == 0) return;
  auto it = apps_.find(container.app);
  MRON_CHECK(it != apps_.end());
  node(container.node).release(container.resource.memory,
                               container.resource.vcores);
  it->second.allocated_memory -= container.resource.memory;
  MRON_CHECK(it->second.allocated_memory >= Bytes(0));
  MRON_CHECK(live_containers_ > 0);
  --live_containers_;
  trigger_schedule();
}

bool ResourceManager::container_live(ContainerId id) const {
  return containers_.find(id) != containers_.end();
}

Bytes ResourceManager::app_allocated_memory(AppId app) const {
  auto it = apps_.find(app);
  MRON_CHECK(it != apps_.end());
  return it->second.allocated_memory;
}

std::size_t ResourceManager::pending_requests() const {
  std::size_t n = 0;
  for (const auto& [id, app] : apps_) n += app.queue.size();
  return n;
}

std::int64_t ResourceManager::cluster_vcore_slots(int vcores) const {
  MRON_CHECK(vcores >= 1);
  std::int64_t slots = 0;
  for (const auto& [capacity, count] : vcore_capacity_histogram_) {
    slots += count * (capacity / vcores);  // per-node integer division
  }
  return slots;
}

void ResourceManager::index_insert(const cluster::Node& n) {
  const FreeKey key = free_key(n);
  const auto i = static_cast<std::size_t>(n.id().value());
  indexed_key_[i] = key;
  free_global_.insert(key);
  const auto rack = topo_.rack_of(n.id());
  free_by_rack_[static_cast<std::size_t>(rack.value())].insert(key);
}

void ResourceManager::index_erase(const cluster::Node& n) {
  // Erase by the remembered key: the node's live state may already have
  // moved past what it was filed under.
  const auto i = static_cast<std::size_t>(n.id().value());
  const FreeKey key = indexed_key_[i];
  free_global_.erase(key);
  const auto rack = topo_.rack_of(n.id());
  free_by_rack_[static_cast<std::size_t>(rack.value())].erase(key);
}

void ResourceManager::on_node_resources_changed(cluster::Node& n) {
  if (!node_alive(n.id())) return;  // dead nodes are not indexed
  index_erase(n);
  index_insert(n);
}

void ResourceManager::trigger_schedule() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  // Placement passes are RM work no matter which AM or fault path asked.
  HOST_PROF_CATEGORY(kYarn);
  engine_.schedule_after(0.0, [this] {
    pass_scheduled_ = false;
    schedule_pass();
  });
}

void ResourceManager::schedule_pass() {
  // Repeatedly let the policy pick an app and try to place one of its
  // requests; an app that fails placement is skipped for the rest of the
  // pass so the loop always terminates.
  std::vector<AppSchedState> view;
  // Shapes no alive node could take this pass. Free resources only shrink
  // within a pass (grant callbacks are deferred; releases and node failures
  // are separate events), so a request dominating one of these cannot fit
  // either and fails without searching the index.
  std::vector<Resource> failed_shapes;
  auto rebuild_view = [&] {
    // Preserve skip flags across rebuilds within this pass.
    std::map<AppId, bool> skipped;
    for (const auto& s : view) skipped[s.id] = s.skip;
    view.clear();
    for (const auto& [id, app] : apps_) {
      AppSchedState s;
      s.id = id;
      s.submit_order = app.submit_order;
      s.allocated_memory = app.allocated_memory;
      s.pending_requests = app.queue.size();
      auto it = skipped.find(id);
      s.skip = it != skipped.end() && it->second;
      view.push_back(s);
    }
  };
  rebuild_view();
  while (true) {
    auto next = policy_->pick_next(view);
    if (!next.has_value()) break;
    auto app_it = apps_.find(*next);
    MRON_CHECK(app_it != apps_.end());
    AppState& app = app_it->second;

    // Scan the app's queue for the first placeable request; MRONLINE's
    // variable-sized containers mean a stuck head must not block smaller
    // requests behind it.
    bool placed = false;
    for (auto it = app.queue.begin(); it != app.queue.end(); ++it) {
      if (try_place(*next, app, *it, failed_shapes)) {
        app.queue.erase(it);
        placed = true;
        break;
      }
    }
    if (!placed) {
      for (auto& s : view) {
        if (s.id == *next) s.skip = true;
      }
      continue;
    }
    rebuild_view();
  }
}

bool ResourceManager::try_place(AppId app_id, AppState& app,
                                PendingRequest& req,
                                std::vector<Resource>& failed_shapes) {
  for (const Resource& f : failed_shapes) {
    if (req.resource.memory >= f.memory && req.resource.vcores >= f.vcores) {
      return false;
    }
  }
  cluster::Node* target = find_node(req);
  if (target == nullptr) {
    failed_shapes.push_back(req.resource);
    return false;
  }
  target->allocate(req.resource.memory, req.resource.vcores);
  app.allocated_memory += req.resource.memory;
  ++live_containers_;
  if (auto* rec = engine_.recorder()) {
    // Resolved on the first grant, so the metric exists only once counted.
    if (containers_allocated_ == nullptr) {
      containers_allocated_ =
          &rec->metrics().counter("yarn.containers_allocated");
    }
    containers_allocated_->add(1.0);
  }
  Container container;
  container.id = container_ids_.next();
  container.app = app_id;
  container.node = target->id();
  container.resource = req.resource;
  containers_.emplace(container.id,
                      LiveContainer{app_id, target->id(), req.resource});

  // Critical path: the grant ends the wait that began at the request's
  // causal origin (attempt request, retry backoff). The node is keyed by
  // container id — unique per grant — and stamped with the trace location
  // so flow events can point at the container's swimlane.
  if (auto* rec = engine_.recorder()) {
    if (req.cp_from != obs::kInvalidCpNode) {
      obs::CriticalPathBuilder& cp = rec->critical_path();
      const obs::CpNode grant = cp.stamped(
          cp.job_of(req.cp_from), "container_grant", engine_.now(),
          container.id.value(), 0, static_cast<int>(target->id().value()),
          static_cast<int>(container.id.value()));
      cp.edge(req.cp_from, grant, req.cp_blame);
      container.cp_grant = grant;
    }
  }

  // Defer the callback so the AM cannot re-enter the placement loop. The
  // deferred work is the AM's grant handler, so it bills to am_task.
  HOST_PROF_CATEGORY(kAmTask);
  engine_.schedule_after(
      0.0, [cb = std::move(req.on_allocated), container] { cb(container); });
  return true;
}

cluster::Node* ResourceManager::first_fitting(const std::set<FreeKey>& index,
                                              const PendingRequest& req) {
  // The index orders alive nodes by (-free memory, id), so the first entry
  // passing the vcore filter *is* the node the legacy full scan
  // picked: maximum free memory, ties to the lowest id. Memory-infeasible
  // entries end the walk early (everything after has less free memory).
  std::int64_t probes = 0;
  cluster::Node* found = nullptr;
  for (const auto& [neg_mem, id] : index) {
    ++probes;
    if (-neg_mem < req.resource.memory.count()) break;  // nothing fits below
    cluster::Node& n = node(cluster::NodeId(id));
    if (req.resource.vcores <= n.vcores_available()) {
      found = &n;
      break;
    }
  }
  if (alloc_index_probes_ != nullptr && probes > 0) {
    alloc_index_probes_->add(static_cast<double>(probes));
  }
  return found;
}

cluster::Node* ResourceManager::find_node(const PendingRequest& req) {
  // 1. node-local
  for (auto pref : req.preferred) {
    cluster::Node& n = node(pref);
    if (node_alive(pref) &&
        req.resource.fits_in(n.memory_available(), n.vcores_available())) {
      if (alloc_node_local_ != nullptr) alloc_node_local_->add(1.0);
      return &n;
    }
  }
  // 2. rack-local: the best candidate of each preferred rack comes off
  // that rack's free index in O(log n + probes); racks are compared in
  // preference order with a strict greater-than, so ties keep the earlier
  // rack's candidate exactly like the legacy nested scan did.
  cluster::Node* best = nullptr;
  for (auto pref : req.preferred) {
    const auto rack = topo_.rack_of(pref);
    cluster::Node* cand = first_fitting(
        free_by_rack_[static_cast<std::size_t>(rack.value())], req);
    if (cand != nullptr &&
        (best == nullptr ||
         cand->memory_available() > best->memory_available())) {
      best = cand;
    }
  }
  if (best != nullptr) {
    if (alloc_rack_local_ != nullptr) alloc_rack_local_->add(1.0);
    return best;
  }
  // 3. anywhere: most free memory, straight off the global index.
  best = first_fitting(free_global_, req);
  if (best != nullptr && alloc_any_ != nullptr) alloc_any_->add(1.0);
  return best;
}

}  // namespace mron::yarn
