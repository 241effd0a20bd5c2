#include "dfs/rereplicator.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "obs/recorder.h"

namespace mron::dfs {

Rereplicator::Rereplicator(sim::Engine& engine, Dfs& dfs,
                           cluster::Fabric& fabric,
                           std::vector<cluster::Node*> nodes,
                           RereplicatorOptions options)
    : engine_(engine),
      dfs_(dfs),
      fabric_(fabric),
      nodes_(std::move(nodes)),
      options_(options),
      node_streams_(nodes_.size(), 0) {
  MRON_CHECK(options_.max_streams_per_node >= 1);
  MRON_CHECK(options_.stream_bandwidth > 0.0);
  if (auto* rec = engine_.recorder()) {
    auto* under_g = &rec->metrics().gauge("dfs.blocks.under_replicated");
    auto* streams_g = &rec->metrics().gauge("dfs.rerepl.streams");
    auto* under_s = &rec->series().series("dfs.blocks.under_replicated");
    auto* streams_s = &rec->series().series("dfs.rerepl.streams");
    rec->add_flush_hook(
        [this, under_g, streams_g, under_s, streams_s] {
          const auto under =
              static_cast<double>(dfs_.under_replicated_blocks());
          const auto streams = static_cast<double>(copies_.size());
          under_g->set(under);
          streams_g->set(streams);
          const SimTime now = engine_.now();
          under_s->push(now, under);
          streams_s->push(now, streams);
        });
  }
}

obs::Counter* Rereplicator::counter(const char* name) {
  if (auto* rec = engine_.recorder()) return &rec->metrics().counter(name);
  return nullptr;
}

void Rereplicator::on_node_lost(cluster::NodeId node) {
  // Idempotent cancellation: every copy the dead node was serving — as the
  // source being read or the target being written — is torn down; the
  // block stays in the under-replication queue and the rescan finds it a
  // fresh source/target pair.
  std::vector<std::int64_t> doomed;
  for (const auto& [id, c] : copies_) {
    if (c.src == node || c.dst == node) doomed.push_back(id);
  }
  for (std::int64_t id : doomed) cancel_copy(id);
  note_queue_state();
  schedule_pump();
}

void Rereplicator::on_node_recovered(cluster::NodeId node) {
  (void)node;
  // The recovered replicas may have restored blocks to target while a copy
  // for them is still in flight; those copies are now pointless work.
  std::vector<std::int64_t> redundant;
  for (const auto& [id, c] : copies_) {
    const DatasetId ds(c.block.first);
    const auto block = static_cast<std::size_t>(c.block.second);
    const Block& b = dfs_.dataset(ds).blocks[block];
    if (b.live >= b.target) redundant.push_back(id);
  }
  for (std::int64_t id : redundant) cancel_copy(id);
  note_queue_state();
  schedule_pump();
}

void Rereplicator::schedule_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  // A 0-delay event keeps the scan out of the RM's failure-notification
  // stack: every subscriber (DFS liveness, then every AM's recovery path)
  // finishes updating state before sources and targets are chosen.
  engine_.schedule_after(0.0, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

void Rereplicator::pump() {
  note_queue_state();
  // The queue orders blocks by fewest live replicas: the most endangered
  // re-replicate first. Starting a copy mutates no DFS state (the replica
  // appears only at completion), so iterating the live set is safe.
  for (const auto& [live, dsv, block] : dfs_.under_replicated()) {
    if (live == 0) continue;  // no live source; recovery must bring one back
    const BlockKey key{dsv, block};
    if (copy_by_block_.count(key) != 0) continue;  // one copy per block
    const DatasetId ds(dsv);
    const Block& b = dfs_.dataset(ds).blocks[static_cast<std::size_t>(block)];
    start_copy(ds, block, b);
  }
}

cluster::NodeId Rereplicator::pick_source(const Block& b) const {
  cluster::NodeId best;
  int best_streams = 0;
  for (auto rep : b.replicas) {
    if (!dfs_.node_alive(rep)) continue;
    const int streams = node_streams_[static_cast<std::size_t>(rep.value())];
    if (streams >= options_.max_streams_per_node) continue;
    if (!best.valid() || streams < best_streams) {
      best = rep;
      best_streams = streams;
    }
  }
  return best;
}

cluster::NodeId Rereplicator::pick_target(const Block& b) const {
  const cluster::Topology& topo = dfs_.topology();
  // Racks already holding a live replica score worse: the replacement
  // should restore the placement policy's failure isolation, not stack
  // copies behind one switch.
  std::vector<std::int64_t> live_racks;
  for (auto rep : b.replicas) {
    if (dfs_.node_alive(rep)) {
      live_racks.push_back(topo.rack_of(rep).value());
    }
  }
  cluster::NodeId best;
  std::tuple<int, int, std::int64_t> best_score;
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const cluster::NodeId cand(i);
    if (!dfs_.node_alive(cand)) continue;
    if (std::find(b.replicas.begin(), b.replicas.end(), cand) !=
        b.replicas.end()) {
      continue;  // already a replica (a dead one may recover with its data)
    }
    const int streams = node_streams_[static_cast<std::size_t>(i)];
    if (streams >= options_.max_streams_per_node) continue;
    const int off_rack =
        std::find(live_racks.begin(), live_racks.end(),
                  topo.rack_of(cand).value()) == live_racks.end()
            ? 0
            : 1;
    const std::tuple<int, int, std::int64_t> score{off_rack, streams,
                                                   dfs_.blocks_hosted(cand)};
    if (!best.valid() || score < best_score) {
      best = cand;
      best_score = score;
    }
  }
  return best;
}

void Rereplicator::start_copy(DatasetId ds, std::int64_t block,
                              const Block& b) {
  const cluster::NodeId src = pick_source(b);
  if (!src.valid()) return;  // all live replicas at their stream limit
  const cluster::NodeId dst = pick_target(b);
  if (!dst.valid()) return;  // no eligible destination right now
  const std::int64_t id = next_copy_id_++;
  Copy& c = copies_[id];
  c.block = {ds.value(), block};
  c.src = src;
  c.dst = dst;
  c.bytes = b.size.as_double();
  ++node_streams_[static_cast<std::size_t>(src.value())];
  ++node_streams_[static_cast<std::size_t>(dst.value())];
  copy_by_block_[c.block] = id;
  ++stats_.copies_started;
  if (auto* ctr = counter("dfs.rerepl.started")) ctr->add(1.0);
  // Three concurrent legs, each capped: read the block off the source
  // disk, stream it through the fabric (receiver NIC + rack uplink), and
  // write it to the destination disk. The copy lands when the slowest leg
  // drains — whichever resource is the bottleneck, including contention
  // from shuffle traffic sharing it.
  const double cap = options_.stream_bandwidth;
  const auto leg = [this, id] { on_leg_done(id); };
  c.src_disk = nodes_[static_cast<std::size_t>(src.value())]->disk().submit(
      c.bytes, cap, leg);
  c.dst_disk = nodes_[static_cast<std::size_t>(dst.value())]->disk().submit(
      c.bytes, cap, leg);
  c.net = fabric_.transfer_capped(src, dst, b.size, cap, leg);
}

void Rereplicator::on_leg_done(std::int64_t copy_id) {
  const auto it = copies_.find(copy_id);
  if (it == copies_.end()) return;  // raced a cancellation
  if (--it->second.remaining_legs > 0) return;
  finish_copy(copy_id);
}

void Rereplicator::finish_copy(std::int64_t copy_id) {
  const auto it = copies_.find(copy_id);
  MRON_CHECK(it != copies_.end());
  const Copy c = it->second;
  copies_.erase(it);
  copy_by_block_.erase(c.block);
  --node_streams_[static_cast<std::size_t>(c.src.value())];
  --node_streams_[static_cast<std::size_t>(c.dst.value())];
  stats_.bytes_copied += c.bytes;
  ++stats_.copies_completed;
  if (auto* ctr = counter("dfs.rerepl.completed")) ctr->add(1.0);
  if (auto* ctr = counter("dfs.rerepl.bytes")) ctr->add(c.bytes);
  dfs_.add_replica(DatasetId(c.block.first),
                   static_cast<std::size_t>(c.block.second), c.dst);
  note_queue_state();
  schedule_pump();  // the block may still be short, or others are waiting
}

void Rereplicator::cancel_copy(std::int64_t copy_id) {
  const auto it = copies_.find(copy_id);
  if (it == copies_.end()) return;  // already finished or cancelled
  const Copy c = it->second;
  copies_.erase(it);
  copy_by_block_.erase(c.block);
  --node_streams_[static_cast<std::size_t>(c.src.value())];
  --node_streams_[static_cast<std::size_t>(c.dst.value())];
  // Stream cancellation is a no-op for legs that already drained, so a
  // copy caught between "two legs done" and "third completing" tears down
  // cleanly too.
  nodes_[static_cast<std::size_t>(c.src.value())]->disk().cancel(c.src_disk);
  nodes_[static_cast<std::size_t>(c.dst.value())]->disk().cancel(c.dst_disk);
  fabric_.cancel_transfer(c.net);
  ++stats_.copies_cancelled;
  if (auto* ctr = counter("dfs.rerepl.cancelled")) ctr->add(1.0);
}

void Rereplicator::note_queue_state() {
  const auto under = dfs_.under_replicated_blocks();
  stats_.peak_under_replicated = std::max(
      stats_.peak_under_replicated, static_cast<std::int64_t>(under));
  if (under > 0) {
    queue_was_under_ = true;
  } else if (queue_was_under_) {
    // The queue just drained — via a completed copy or a recovered node
    // restoring its replicas. This stamp is the report's
    // under-replication recovery time.
    queue_was_under_ = false;
    stats_.last_fully_replicated = engine_.now();
  }
}

}  // namespace mron::dfs
