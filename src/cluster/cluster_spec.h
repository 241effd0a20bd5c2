// The `--cluster=SPEC` topology grammar.
//
// A ClusterSpec is its hardware groups, each contributing whole racks of
// identical nodes (see topology.h); the text form lists them in id order.
// It is line-oriented; `;` also separates statements so a whole spec fits
// in one CLI argument, and `#` starts a comment:
//
//   # 1,024 nodes in two hardware classes (spec mix after arXiv:1411.3811)
//   inter_rack_factor 0.5
//   group name=std    racks=12 nodes=64 cores=8  vcores=32 mem_gb=8
//   group name=bigmem racks=4  nodes=64 cores=16 vcores=64 mem_gb=32
//   # (keys omitted from a group line keep the testbed defaults)
//
// Group keys (all optional except racks/nodes; defaults = the paper's
// 19-node testbed hardware): name, racks, nodes, cores, vcores,
// container_vcores, mem_gb, container_mem_gb, cpu_quota, disk_mbps,
// seek_penalty, nic_gbps, daemon_reserve.
//
// `load_cluster_spec` additionally accepts the presets `testbed19` (the
// default ClusterSpec: one group of 2 racks x 9 testbed nodes) and
// `nodes:N[,rack:R]` (N testbed-class slaves in racks of R, default 64),
// or a path to a spec file.
#pragma once

#include <string>

#include "cluster/topology.h"

namespace mron::cluster {

/// Largest cluster a spec may describe. Every slave costs a Node (its
/// servers, monitor state, RM index entry and DFS bookkeeping) before the
/// first event runs, so an unbounded request is an out-of-memory kill
/// rather than an error. 131,072 is 12.8x the largest cluster the
/// benchmarks and scalebench sweep exercise (10,240 nodes).
inline constexpr int kMaxClusterNodes = 131072;

/// Parse spec text (the grammar above). Throws InputError with the
/// offending statement on malformed input or invalid hardware.
[[nodiscard]] ClusterSpec parse_cluster_spec(const std::string& text);

/// Resolve a --cluster= argument: preset name, inline spec text (anything
/// containing '='), or a spec file path.
[[nodiscard]] ClusterSpec load_cluster_spec(const std::string& arg);

/// `slaves` testbed-hardware nodes packed into racks of `rack_size` (a
/// trailing smaller rack takes the remainder) — the scalebench sweep shape.
[[nodiscard]] ClusterSpec scaled_spec(int slaves, int rack_size = 64);

/// Render `spec` back into parseable text (round-trips through
/// parse_cluster_spec).
[[nodiscard]] std::string render_cluster_spec(const ClusterSpec& spec);

/// Validate a spec: at least one group, every group at least one rack of
/// at least one node, hardware sanity (positive rates, container resources
/// within node resources) and at most kMaxClusterNodes nodes in all.
/// Throws InputError on violation.
/// parse_cluster_spec and scaled_spec call this; hand-built specs can too.
void validate_cluster_spec(const ClusterSpec& spec);

}  // namespace mron::cluster
