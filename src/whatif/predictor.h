// Starfish-style "what-if" engine (Herodotou et al., CIDR'11 — the paper's
// main related-work comparator): a closed-form analytic predictor of job
// execution time for a given (profile, configuration, cluster) triple,
// plus a cost-based optimizer that searches configurations against the
// predictor instead of against real runs.
//
// The predictor deliberately shares the spill mechanics with the simulator
// (plan_map_spills / ShuffleBufferModel constants) but replaces queueing
// with closed-form fair-share approximations — exactly the fidelity split
// the MRONLINE paper criticizes: "the effectiveness of this approach
// depends on the accuracy of the what-if engine". bench/ext_whatif
// quantifies that accuracy gap against the discrete-event simulator.
#pragma once

#include <vector>

#include "cluster/topology.h"
#include "mapreduce/app_profile.h"
#include "mapreduce/params.h"

namespace mron::whatif {

struct PredictionInputs {
  /// The model is single-point: every slave is taken to run the first
  /// group's hardware, and all total_slaves() of them count toward
  /// concurrency.
  cluster::ClusterSpec cluster;
  mapreduce::AppProfile profile;
  Bytes input_size;       ///< total job input
  int num_maps = 0;       ///< 0 = derive from input / 128 MiB blocks
  int num_reduces = 1;
  mapreduce::JobConfig config;
  /// Optional per-slave slowdown factors (>= 1 = that node runs X times
  /// slower: a degraded disk/NIC or recovering host). Empty = homogeneous
  /// cluster; otherwise size must equal cluster.total_slaves(). An all-1.0
  /// vector predicts byte-identically to the empty one.
  std::vector<double> node_slowdown;
};

struct Prediction {
  // Per-task estimates.
  double map_task_secs = 0.0;
  double reduce_task_secs = 0.0;
  // Concurrency geometry.
  int map_slots_per_node = 0;
  int reduce_slots_per_node = 0;
  int map_waves = 0;
  int reduce_waves = 0;
  // Phase and total estimates.
  double map_phase_secs = 0.0;
  double reduce_phase_secs = 0.0;
  double total_secs = 0.0;
  // Dataflow estimates.
  std::int64_t map_spill_records = 0;
  Bytes shuffle_bytes{0};
};

/// Closed-form job-time prediction.
Prediction predict(const PredictionInputs& inputs);

/// Cost-based optimizer: searches the Table-2 space against predict()
/// (cheap model invocations, no runs) and returns the best configuration
/// found. `evaluations` bounds the number of model probes across all
/// `restarts` independent search chains; the chains fan out over `jobs`
/// worker threads but the result depends only on (seed, restarts), never on
/// `jobs` — ties between chains break toward the lowest chain index.
/// restarts = 1 reproduces the original single-chain search exactly.
mapreduce::JobConfig optimize_with_model(const PredictionInputs& base,
                                         int evaluations = 2000,
                                         std::uint64_t seed = 4,
                                         int restarts = 1, int jobs = 1);

}  // namespace mron::whatif
