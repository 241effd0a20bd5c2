// Network fabric: point-to-point transfers with rack awareness.
//
// Modeling choice (documented in DESIGN.md): a transfer contends at the
// *receiver's* NIC ingress server — the MapReduce traffic that matters here
// is shuffle fan-in, which bottlenecks at the fetching reducer's NIC — and
// cross-rack streams additionally traverse a shared per-rack uplink server.
// A cross-rack transfer completes when both the ingress stream and the
// uplink stream have drained (max of the two stage times), which tracks
// whichever stage is the bottleneck. Sender egress is accounted for
// utilization statistics but not rate-limited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "cluster/topology.h"
#include "common/strong_id.h"
#include "sim/shared_server.h"

namespace mron::cluster {

struct CopyTag {};
/// Handle for a cancellable transfer_capped() stream.
using CopyId = StrongId<CopyTag>;

class Fabric {
 public:
  using Done = sim::Callback;

  Fabric(sim::Engine& engine, const ClusterSpec& spec, const Topology& topo,
         std::vector<Node*> nodes);

  /// Move `size` bytes from `src` to `dst`; `done` fires at completion.
  /// A node-local "transfer" (src == dst) completes after a 0-cost event.
  /// Allocation-free once warm: a cross-rack transfer's two legs join
  /// through a recycled slot, not a heap-allocated counter.
  void transfer(NodeId src, NodeId dst, Bytes size, Done done);

  /// transfer() with a per-stream rate cap (work-units/sec; kUncapped for
  /// none) and a cancellation handle — the DFS re-replication pipeline's
  /// transport. Contends on exactly the same servers as transfer()
  /// (receiver NIC ingress, destination rack uplink when cross-rack), so
  /// recovery traffic and shuffle fan-in compete for the same capacity.
  CopyId transfer_capped(NodeId src, NodeId dst, Bytes size, double cap,
                         Done done);
  /// Abort a capped transfer: its `done` never fires and its streams leave
  /// their servers. No-op when already finished or cancelled (the common
  /// pattern when a completion races a source-node death).
  void cancel_transfer(CopyId id);

  /// Total bytes that have crossed rack boundaries (for tests/benches).
  [[nodiscard]] double inter_rack_bytes() const { return inter_rack_bytes_; }
  /// SharedServer::table_bytes() summed over the rack uplinks.
  [[nodiscard]] std::size_t uplink_table_bytes() const;

 private:
  /// Bookkeeping for one transfer_capped(): which server streams to cancel
  /// and how many legs are still draining.
  struct CopyState {
    Done done;
    int remaining = 0;
    NodeId dst;
    bool has_nic = false;
    sim::StreamId nic;
    std::int64_t uplink_rack = -1;
    sim::StreamId uplink;
    bool has_event = false;  ///< degenerate 0-byte/local copy
    sim::EventId event;
  };

  void copy_leg_done(std::int64_t id);
  void join_leg_done(std::int32_t slot);

  /// Completion join for one cross-rack transfer(): fires `done` when both
  /// legs have drained. Free slots chain through `next_free`.
  struct Join {
    int remaining = 0;
    std::int32_t next_free = -1;
    Done done;
  };

  sim::Engine& engine_;
  const Topology& topo_;
  std::vector<Node*> nodes_;
  std::vector<std::unique_ptr<sim::SharedServer>> rack_uplinks_;
  double inter_rack_factor_;
  double inter_rack_bytes_ = 0.0;
  /// Live capped transfers, keyed by CopyId value (ordered so any
  /// diagnostic iteration is deterministic).
  std::map<std::int64_t, CopyState> copies_;
  std::int64_t next_copy_id_ = 0;
  std::vector<Join> joins_;
  std::int32_t free_join_ = -1;
};

}  // namespace mron::cluster
