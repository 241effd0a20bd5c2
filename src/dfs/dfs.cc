#include "dfs/dfs.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace mron::dfs {
namespace {

/// The k-th node id not present in the sorted exclusion list `excl`:
/// increment past each exclusion at or below the running id.
cluster::NodeId skip_excluded(std::int64_t k,
                              const std::vector<std::int64_t>& excl) {
  std::int64_t id = k;
  for (std::int64_t e : excl) {
    if (id >= e) ++id;
  }
  return cluster::NodeId(id);
}

/// Uniform pick among all nodes not already in `out` (one draw).
void place_uniform_spare(const cluster::Topology& topo, Rng& rng,
                         std::vector<cluster::NodeId>& out) {
  const std::int64_t n = topo.num_nodes();
  const auto placed = static_cast<std::int64_t>(out.size());
  if (placed >= n) return;
  std::vector<std::int64_t> excl;
  excl.reserve(out.size());
  for (auto r : out) excl.push_back(r.value());
  std::sort(excl.begin(), excl.end());
  const std::int64_t k = rng.uniform_int(0, n - placed - 1);
  out.push_back(skip_excluded(k, excl));
}

/// HDFS default placement of one block's replicas into `out` (empty on
/// entry; `want` already clamped to [1, topo.num_nodes()]): first replica
/// on a random node (stand-in for the writer), second on a different rack,
/// third on the second's rack; replicas beyond three land on uniform-random
/// remaining nodes. A degenerate topology may yield fewer than `want`.
void place_rack_aware(const cluster::Topology& topo, Rng& rng, int want,
                      std::vector<cluster::NodeId>& out) {
  const std::int64_t n = topo.num_nodes();

  // First replica: uniform random node (stand-in for "writer's node").
  const cluster::NodeId first(rng.uniform_int(0, n - 1));
  out.push_back(first);
  if (want == 1) return;

  // Second replica: a node on a different rack when one exists (k-th
  // off-rack node by index shift — same draw bounds as the legacy
  // materialized list, so the same winner).
  const auto first_rack = topo.rack_of(first);
  const std::int64_t first_lo = topo.rack_first_node(first_rack);
  const std::int64_t first_sz = topo.rack_size(first_rack);
  const std::int64_t off_rack_count = n - first_sz;
  cluster::NodeId second = first;
  if (off_rack_count > 0) {
    std::int64_t k = rng.uniform_int(0, off_rack_count - 1);
    if (k >= first_lo) k += first_sz;
    second = cluster::NodeId(k);
  } else {
    while (second == first && n > 1) {
      second = cluster::NodeId(rng.uniform_int(0, n - 1));
    }
  }
  out.push_back(second);
  if (want == 2) return;

  // Third replica: the second's rack, distinct node, skipping sorted
  // exclusions — identical to indexing the old filtered vector.
  const auto rack = topo.rack_of(second);
  const std::int64_t lo = topo.rack_first_node(rack);
  const std::int64_t sz = topo.rack_size(rack);
  const std::int64_t f = first.value();
  const std::int64_t s = second.value();
  std::int64_t excl[2] = {s, s};
  std::int64_t num_excl = 1;
  if (f >= lo && f < lo + sz && f != s) {
    excl[0] = std::min(f, s);
    excl[1] = std::max(f, s);
    num_excl = 2;
  }
  cluster::NodeId third = first;
  if (sz > num_excl) {
    std::int64_t id = lo + rng.uniform_int(0, sz - num_excl - 1);
    for (std::int64_t i = 0; i < num_excl; ++i) {
      if (id >= excl[i]) ++id;
    }
    third = cluster::NodeId(id);
  }
  if (third != first && third != second) out.push_back(third);

  // Replicas beyond three (per-dataset replication overrides): uniform
  // among the remaining nodes. Never reached at the default replication of
  // three, so the pinned three-replica draw stream is untouched.
  while (static_cast<std::int64_t>(out.size()) <
             std::min<std::int64_t>(want, n) &&
         static_cast<std::int64_t>(out.size()) < n) {
    place_uniform_spare(topo, rng, out);
  }
}

}  // namespace

Dfs::Dfs(const cluster::Topology& topo, Rng rng, Bytes block_size,
         int replication)
    : topo_(topo),
      rng_(rng),
      block_size_(block_size),
      replication_(replication),
      alive_(static_cast<std::size_t>(topo.num_nodes()), true),
      node_blocks_(static_cast<std::size_t>(topo.num_nodes())) {
  MRON_CHECK(block_size_ > Bytes(0));
  MRON_CHECK(replication_ >= 1);
}

DatasetId Dfs::create_dataset(const std::string& name, Bytes total_size,
                              int replication) {
  MRON_CHECK(total_size >= Bytes(0));
  if (replication < 0) replication = replication_;
  MRON_CHECK(replication >= 1);
  Dataset ds;
  ds.id = DatasetId(static_cast<std::int64_t>(datasets_.size()));
  ds.name = name;
  ds.total_size = total_size;
  // Sizes first (one reservation, no reallocation as blocks accumulate),
  // then every block's replicas in a single bulk pass. A 1 TiB dataset on
  // 128 MiB blocks is 8,192 blocks at setup time; the split matters once
  // datasets are created per-benchmark on 10,000-node sweeps.
  ds.blocks.reserve(static_cast<std::size_t>(total_size / block_size_) + 1);
  Bytes remaining = total_size;
  while (remaining > Bytes(0)) {
    Block b;
    b.size = std::min(remaining, block_size_);
    ds.blocks.push_back(std::move(b));
    remaining -= ds.blocks.back().size;
  }
  place_replicas_bulk(ds.blocks, std::min(replication, topo_.num_nodes()));
  // Index the placements and seed the liveness accounting. Target is what
  // placement produced (a degenerate topology may admit fewer than asked),
  // so a block is under-replicated exactly when a replica host is dead.
  const std::int64_t dsi = ds.id.value();
  for (std::size_t i = 0; i < ds.blocks.size(); ++i) {
    Block& b = ds.blocks[i];
    b.target = static_cast<int>(b.replicas.size());
    b.live = 0;
    for (auto rep : b.replicas) {
      node_blocks_[static_cast<std::size_t>(rep.value())].push_back(
          {dsi, static_cast<std::int64_t>(i)});
      if (alive_[static_cast<std::size_t>(rep.value())]) ++b.live;
    }
    if (b.live < b.target) {
      under_.insert({b.live, dsi, static_cast<std::int64_t>(i)});
    }
  }
  total_blocks_ += ds.blocks.size();
  datasets_.push_back(std::move(ds));
  return datasets_.back().id;
}

void Dfs::place_replicas_bulk(std::vector<Block>& blocks, int want) {
  for (Block& b : blocks) {
    b.replicas.reserve(static_cast<std::size_t>(want));
    place_rack_aware(topo_, rng_, want, b.replicas);
  }
}

const Dataset& Dfs::dataset(DatasetId id) const {
  MRON_CHECK(id.valid() &&
             id.value() < static_cast<std::int64_t>(datasets_.size()));
  return datasets_[static_cast<std::size_t>(id.value())];
}

Block& Dfs::block_at(DatasetId ds, std::size_t block) {
  MRON_CHECK(ds.valid() &&
             ds.value() < static_cast<std::int64_t>(datasets_.size()));
  auto& blocks = datasets_[static_cast<std::size_t>(ds.value())].blocks;
  MRON_CHECK(block < blocks.size());
  return blocks[block];
}

Locality Dfs::locality(DatasetId ds, std::size_t block,
                       cluster::NodeId reader) const {
  const auto& blocks = dataset(ds).blocks;
  MRON_CHECK(block < blocks.size());
  for (auto rep : blocks[block].replicas) {
    if (rep == reader && node_alive(rep)) return Locality::NodeLocal;
  }
  for (auto rep : blocks[block].replicas) {
    if (node_alive(rep) && topo_.same_rack(rep, reader)) {
      return Locality::RackLocal;
    }
  }
  return Locality::OffRack;
}

cluster::NodeId Dfs::pick_replica(DatasetId ds, std::size_t block,
                                  cluster::NodeId reader) const {
  const auto& blocks = dataset(ds).blocks;
  MRON_CHECK(block < blocks.size());
  for (auto rep : blocks[block].replicas) {
    if (rep == reader && node_alive(rep)) return rep;
  }
  for (auto rep : blocks[block].replicas) {
    if (node_alive(rep) && topo_.same_rack(rep, reader)) return rep;
  }
  for (auto rep : blocks[block].replicas) {
    if (node_alive(rep)) return rep;
  }
  return cluster::NodeId();  // block currently has no live replica
}

void Dfs::on_node_lost(cluster::NodeId node) {
  const auto i = static_cast<std::size_t>(node.value());
  MRON_CHECK(node.valid() && i < alive_.size());
  if (!alive_[i]) return;
  alive_[i] = false;
  for (const BlockRef& ref : node_blocks_[i]) {
    Block& b = block_at(DatasetId(ref.ds),
                        static_cast<std::size_t>(ref.block));
    const int old_live = b.live;
    --b.live;
    MRON_CHECK(b.live >= 0);
    refile_under(ref.ds, ref.block, old_live);
  }
}

void Dfs::on_node_recovered(cluster::NodeId node) {
  const auto i = static_cast<std::size_t>(node.value());
  MRON_CHECK(node.valid() && i < alive_.size());
  if (alive_[i]) return;
  alive_[i] = true;
  for (const BlockRef& ref : node_blocks_[i]) {
    Block& b = block_at(DatasetId(ref.ds),
                        static_cast<std::size_t>(ref.block));
    const int old_live = b.live;
    ++b.live;
    refile_under(ref.ds, ref.block, old_live);
    if (old_live == 0) fire_waiters(ref.ds, ref.block);
  }
}

int Dfs::live_replicas(DatasetId ds, std::size_t block) const {
  const auto& blocks = dataset(ds).blocks;
  MRON_CHECK(block < blocks.size());
  return blocks[block].live;
}

void Dfs::wait_for_block(DatasetId ds, std::size_t block, BlockWaiter cb) {
  MRON_CHECK(cb != nullptr);
  if (has_live_replica(ds, block)) {
    cb();
    return;
  }
  waiters_[{ds.value(), static_cast<std::int64_t>(block)}].push_back(
      std::move(cb));
}

void Dfs::add_replica(DatasetId ds, std::size_t block, cluster::NodeId node) {
  const auto i = static_cast<std::size_t>(node.value());
  MRON_CHECK(node.valid() && i < alive_.size());
  MRON_CHECK_MSG(alive_[i], "re-replication target died before the copy "
                            "landed — the pipeline must cancel first");
  Block& b = block_at(ds, block);
  MRON_CHECK(std::find(b.replicas.begin(), b.replicas.end(), node) ==
             b.replicas.end());
  b.replicas.push_back(node);
  node_blocks_[i].push_back({ds.value(), static_cast<std::int64_t>(block)});
  const int old_live = b.live;
  ++b.live;
  refile_under(ds.value(), static_cast<std::int64_t>(block), old_live);
  if (old_live == 0) {
    fire_waiters(ds.value(), static_cast<std::int64_t>(block));
  }
}

void Dfs::refile_under(std::int64_t ds, std::int64_t block, int old_live) {
  const Block& b = datasets_[static_cast<std::size_t>(ds)]
                       .blocks[static_cast<std::size_t>(block)];
  if (old_live < b.target) under_.erase({old_live, ds, block});
  if (b.live < b.target) under_.insert({b.live, ds, block});
}

void Dfs::fire_waiters(std::int64_t ds, std::int64_t block) {
  const auto it = waiters_.find({ds, block});
  if (it == waiters_.end()) return;
  // Move out first: a resumed reader may park again re-entrantly (its node
  // may be the one that just recovered but its replica is still gone).
  std::vector<BlockWaiter> pending = std::move(it->second);
  waiters_.erase(it);
  for (BlockWaiter& cb : pending) cb();
}

const char* locality_name(Locality loc) {
  switch (loc) {
    case Locality::NodeLocal:
      return "NODE_LOCAL";
    case Locality::RackLocal:
      return "RACK_LOCAL";
    case Locality::OffRack:
      return "OFF_RACK";
  }
  return "?";
}

}  // namespace mron::dfs
