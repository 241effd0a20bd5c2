// The YARN resource manager.
//
// Owns the cluster's nodes for allocation purposes, tracks registered
// applications, queues container requests, and runs locality-aware placement
// passes under a pluggable scheduling policy. Requests may each carry a
// different Resource — the variable-sized-container extension MRONLINE adds
// to the stock scheduler (Section 4 of the paper; implemented there with a
// hash map keyed by container size, here by simply storing the size on the
// request).
//
// Placement preference order per request: node-local (a preferred node with
// room) -> rack-local -> any node, picking the candidate with the most free
// memory. Allocation callbacks are dispatched through 0-delay events so
// application masters never re-enter the placement loop.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/monitor.h"
#include "cluster/node.h"
#include "cluster/topology.h"
#include "obs/critical_path.h"
#include "sim/engine.h"
#include "yarn/resource.h"
#include "yarn/scheduling_policy.h"

namespace mron::obs {
class Counter;
}  // namespace mron::obs

namespace mron::yarn {

class ResourceManager {
 public:
  using AllocationCb = std::function<void(const Container&)>;

  ResourceManager(sim::Engine& engine, const cluster::Topology& topo,
                  std::vector<cluster::Node*> nodes,
                  std::unique_ptr<SchedulingPolicy> policy);

  ~ResourceManager();

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // --- application lifecycle ----------------------------------------------
  /// `queue` is consumed by the capacity policy (ignored by FIFO/fair).
  AppId register_app(const std::string& name, double weight = 1.0,
                     int queue = 0);
  /// Releases nothing by itself: apps must release containers first.
  void unregister_app(AppId app);

  // --- container requests --------------------------------------------------
  /// Ask for one container; `preferred` are the nodes holding the input
  /// split's replicas (may be empty for don't-care, e.g. reducers).
  /// `cp_from`/`cp_blame` give the request a causal origin: when observed,
  /// the grant stamps a "container_grant" critical-path node and draws an
  /// edge from `cp_from` charged to `cp_blame` (the wait is scheduler
  /// queueing by default; AM retry paths charge it to recovery). The grant
  /// handle comes back to the AM via Container::cp_grant.
  RequestId request_container(AppId app, Resource resource,
                              std::vector<cluster::NodeId> preferred,
                              AllocationCb on_allocated,
                              obs::CpNode cp_from = obs::kInvalidCpNode,
                              obs::Blame cp_blame = obs::Blame::SchedWait);
  /// Cancel a not-yet-satisfied request (no-op once allocated).
  void cancel_request(RequestId id);
  /// Release a container. A container the RM already reclaimed (its node
  /// died) is a no-op: the bookkeeping was undone at reclaim time, and the
  /// AM's release is just its own cleanup racing the RM's.
  void release_container(const Container& container);
  /// True while `id` is granted and its node has not been reclaimed. AMs
  /// check this on allocation callbacks: a grant dispatched just before
  /// its node died arrives stale.
  [[nodiscard]] bool container_live(ContainerId id) const;

  // --- node liveness (failure injection) -------------------------------------
  /// Fail-stop a node: every container on it is reclaimed (released from
  /// the node and its app's bookkeeping), it receives no further
  /// containers, and every subscriber (application master) is told so it
  /// can re-execute lost work. Idempotent.
  void fail_node(cluster::NodeId node);
  [[nodiscard]] bool node_alive(cluster::NodeId node) const;
  using NodeFailureCb = std::function<void(cluster::NodeId)>;
  void subscribe_node_failures(NodeFailureCb cb);
  /// Observe real recoveries (recover_node() on a node that was declared
  /// lost; transient heartbeat blips never notify). The DFS uses this to
  /// restore the node's replicas and resume readers parked on dead blocks.
  /// Callbacks run in subscription order.
  void subscribe_node_recoveries(NodeFailureCb cb);

  // --- heartbeat tracking (fault injection) ---------------------------------
  /// Start the NodeManager heartbeat watchdog: nodes are assumed to
  /// heartbeat every `period` seconds; one that stays silent for `timeout`
  /// is declared lost via the fail_node() path. Without this, failures
  /// only happen through direct fail_node() calls (the legacy test path).
  void enable_heartbeats(SimTime period, SimTime timeout);
  /// The node stops heartbeating (crash or partition). With heartbeats
  /// enabled the watchdog declares it lost one timeout later; without,
  /// the node is failed immediately. A node that resumes (recover_node)
  /// before the timeout elapses was just a transient blip — no subscriber
  /// ever hears about it and its work is undisturbed.
  void mark_node_unresponsive(cluster::NodeId node);
  /// Bring a failed (or unresponsive) node back: it heartbeats again and
  /// may receive containers. Idempotent; lost work is not resurrected.
  void recover_node(cluster::NodeId node);

  /// Enable hot-spot-aware placement (one of MRONLINE's runtime levers):
  /// nodes whose disk or NIC utilization exceeded `threshold` in the
  /// monitor's last window are avoided while a cooler candidate exists.
  void set_cluster_monitor(const cluster::ClusterMonitor* monitor,
                           double hot_threshold = 0.9);

  /// Delay scheduling (Zaharia et al.): a request with node preferences
  /// passes on non-local placements for up to `passes` scheduling passes
  /// before relaxing to rack-local/any. 0 disables (the default).
  void set_locality_delay(int passes);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] Bytes app_allocated_memory(AppId app) const;
  [[nodiscard]] std::size_t pending_requests() const;
  [[nodiscard]] std::size_t live_containers() const {
    return live_containers_;
  }
  [[nodiscard]] cluster::Node& node(cluster::NodeId id) {
    return *nodes_[static_cast<std::size_t>(id.value())];
  }
  [[nodiscard]] const cluster::Topology& topology() const { return topo_; }
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(nodes_.size());
  }
  /// Total container-memory capacity across all nodes (dead included —
  /// capacity is hardware, not liveness). Cached at construction: O(1).
  [[nodiscard]] Bytes cluster_memory_capacity() const {
    return cluster_memory_capacity_;
  }
  /// How many containers of `vcores` the whole cluster's vcore capacity
  /// admits (sum over nodes of floor(capacity/vcores), dead included).
  /// Computed from the per-capacity histogram: O(hardware classes).
  [[nodiscard]] std::int64_t cluster_vcore_slots(int vcores) const;

 private:
  struct PendingRequest {
    RequestId id;
    Resource resource;
    std::vector<cluster::NodeId> preferred;
    AllocationCb on_allocated;
    int locality_misses = 0;  ///< passes spent waiting for a local slot
    obs::CpNode cp_from = obs::kInvalidCpNode;  ///< causal origin of the wait
    obs::Blame cp_blame = obs::Blame::SchedWait;
  };
  struct AppState {
    std::string name;
    std::int64_t submit_order = 0;
    double weight = 1.0;
    int sched_queue = 0;  ///< capacity-scheduler queue
    Bytes allocated_memory{0};
    std::deque<PendingRequest> queue;
    bool live = false;
  };

  /// Granted-container ledger entry; erased on release or node reclaim.
  struct LiveContainer {
    AppId app;
    cluster::NodeId node;
    Resource resource;
  };

  void trigger_schedule();
  void schedule_pass();
  /// Watchdog tick: declare nodes lost whose silence started more than the
  /// timeout ago, then re-arm while the engine has other live events. Only
  /// visits the silent set — O(silent nodes), not O(nodes).
  void heartbeat_tick();
  /// Try to place request `req`; returns true and fires its callback on
  /// success. `failed_shapes` is the pass's memo of shapes no alive node
  /// could take: a request dominating one fails without a search, and a
  /// request that finds no node anywhere is added to it.
  bool try_place(AppId app_id, AppState& app, PendingRequest& req,
                 std::vector<Resource>& failed_shapes);
  /// Best node for `req` following node-local -> rack-local -> any;
  /// `avoid_hot` filters out monitor-flagged hot nodes.
  [[nodiscard]] cluster::Node* find_node(const PendingRequest& req,
                                         bool avoid_hot);
  [[nodiscard]] bool is_hot(const cluster::Node& node) const;

  // --- free-resource index ---------------------------------------------------
  // Every *alive* node appears in the global set and its rack's set, keyed
  // by (-memory_available, node id): begin() is the max-free-memory node,
  // ties broken toward the lowest id — exactly the candidate the legacy
  // full scan picked, so placement decisions (and therefore reports) are
  // byte-identical. Each node's resource observer re-keys it on every
  // allocate/release (including direct mutations by tests), and
  // fail/recover remove/re-add it: O(log n) per container event instead of
  // O(n) per placement.
  using FreeKey = std::pair<std::int64_t, std::int64_t>;
  [[nodiscard]] FreeKey free_key(const cluster::Node& n) const {
    return {-n.memory_available().count(), n.id().value()};
  }
  void index_insert(const cluster::Node& n);
  void index_erase(const cluster::Node& n);
  /// Node resource observer: re-key `n` in the index (no-op while dead).
  void on_node_resources_changed(cluster::Node& n);
  /// First node in `index` (descending free memory) satisfying `req`, or
  /// nullptr. Walks past nodes that fail the vcore/hot/liveness filters.
  [[nodiscard]] cluster::Node* first_fitting(const std::set<FreeKey>& index,
                                             const PendingRequest& req,
                                             bool avoid_hot);

  sim::Engine& engine_;
  const cluster::Topology& topo_;
  std::vector<cluster::Node*> nodes_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::map<AppId, AppState> apps_;  // ordered for deterministic iteration
  IdAllocator<AppId> app_ids_;
  IdAllocator<ContainerId> container_ids_;
  IdAllocator<RequestId> request_ids_;
  std::int64_t next_submit_order_ = 0;
  bool pass_scheduled_ = false;
  std::size_t live_containers_ = 0;
  const cluster::ClusterMonitor* monitor_ = nullptr;
  double hot_threshold_ = 0.9;
  std::vector<bool> alive_;
  std::vector<NodeFailureCb> failure_subscribers_;
  std::vector<NodeFailureCb> recovery_subscribers_;
  int locality_delay_passes_ = 0;
  /// Every granted container, keyed by id (ordered: reclaim scans must
  /// visit containers in grant order for determinism).
  std::map<ContainerId, LiveContainer> containers_;
  // Heartbeat watchdog state (enable_heartbeats).
  bool heartbeats_enabled_ = false;
  SimTime heartbeat_period_ = 0.5;
  SimTime heartbeat_timeout_ = 3.0;
  std::vector<bool> responsive_;
  std::vector<SimTime> last_heartbeat_;
  /// Unresponsive-but-alive node ids (ascending — the watchdog must visit
  /// them in the same order the legacy full scan did). The tick loops over
  /// this set only, and "a death declaration is pending" is !empty().
  std::set<std::int64_t> silent_;
  /// Per node: when its current silence started (the legacy
  /// last-responsive-heartbeat reference the timeout measures from).
  std::vector<SimTime> silent_since_;
  /// Time of the most recent watchdog tick (== every responsive node's
  /// last heartbeat, without writing n timestamps per tick).
  SimTime last_tick_ = 0.0;

  // Free-resource index (see free_key above). indexed_key_ remembers the
  // key each alive node is filed under, so re-keying after a resource
  // change never depends on reconstructing stale state.
  std::set<FreeKey> free_global_;
  std::vector<std::set<FreeKey>> free_by_rack_;
  std::vector<FreeKey> indexed_key_;
  Bytes cluster_memory_capacity_{0};
  /// vcores_capacity -> node count (dead nodes included; capacities are
  /// fixed at construction). Ordered for deterministic iteration.
  std::map<int, std::int64_t> vcore_capacity_histogram_;

  // yarn.alloc.* placement metrics (cached handles; null when unobserved).
  obs::Counter* alloc_node_local_ = nullptr;
  obs::Counter* alloc_rack_local_ = nullptr;
  obs::Counter* alloc_any_ = nullptr;
  obs::Counter* alloc_index_probes_ = nullptr;
};

}  // namespace mron::yarn
