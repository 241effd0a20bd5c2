#include "whatif/predictor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "mapreduce/reduce_task.h"  // kFetchLatency
#include "mapreduce/spill_model.h"
#include "sim/parallel_runner.h"

namespace mron::whatif {

using mapreduce::JobConfig;
using mapreduce::kCodecCompressionRatio;
using mapreduce::kHeapFraction;

namespace {

/// Containers of `mem_mb`/`vcores` that fit one node.
int slots_per_node(const cluster::NodeHardware& hw, double mem_mb,
                   double vcores) {
  const int by_mem = static_cast<int>(hw.container_memory.as_double() /
                                      mebibytes(mem_mb).as_double());
  const int by_vcores =
      static_cast<int>(hw.container_vcores / std::max(1.0, vcores));
  return std::max(0, std::min(by_mem, by_vcores));
}

/// Fair-share disk rate for `streams` concurrent streams on one spindle.
double disk_rate(const cluster::NodeHardware& hw, int streams) {
  const double eff =
      hw.disk_bandwidth.rate() /
      (1.0 + hw.disk_seek_penalty * std::max(0, streams - 1));
  return eff / std::max(1, streams);
}

/// Fair-share CPU rate (core-units) for a task whose quota is `quota`
/// among `tasks` concurrent tasks on the node.
double cpu_rate(const cluster::NodeHardware& hw, double quota,
                double demand, int tasks) {
  const double share = hw.container_core_units() / std::max(1, tasks);
  return std::min({quota, demand, std::max(share, 1e-9)});
}

/// Heterogeneous-cluster phase stretch: steady-state waves run at the
/// harmonic-mean slowdown (a node with slowdown s contributes 1/s of its
/// slot throughput); the final wave is pessimistically charged the slowest
/// node's factor. Returns {harmonic_mean, worst}; {1, 1} when the vector
/// is empty or all ones, which keeps the homogeneous path byte-identical.
std::pair<double, double> slowdown_stretch(
    const std::vector<double>& slowdown) {
  if (slowdown.empty()) return {1.0, 1.0};
  double inv_sum = 0.0;
  double worst = 0.0;
  for (double s : slowdown) {
    MRON_CHECK_MSG(s > 0.0, "node slowdown factors must be > 0");
    inv_sum += 1.0 / s;
    worst = std::max(worst, s);
  }
  return {static_cast<double>(slowdown.size()) / inv_sum, worst};
}

/// Phase time for `waves` waves of `task_secs` tasks under the stretch.
double phase_secs(int waves, double task_secs,
                  const std::pair<double, double>& stretch) {
  if (waves <= 0) return 0.0;
  return task_secs * ((waves - 1) * stretch.first + stretch.second);
}

}  // namespace

Prediction predict(const PredictionInputs& inputs) {
  // A single-point model: the first group is the representative node
  // class, and every slave counts toward concurrency.
  MRON_CHECK_MSG(!inputs.cluster.groups.empty(), "cluster has no groups");
  const cluster::NodeHardware& hw = inputs.cluster.groups.front().hardware;
  const int slaves = inputs.cluster.total_slaves();
  const mapreduce::AppProfile& p = inputs.profile;
  JobConfig cfg = inputs.config;
  mapreduce::clamp_constraints(cfg);

  MRON_CHECK_MSG(inputs.node_slowdown.empty() ||
                     static_cast<int>(inputs.node_slowdown.size()) == slaves,
                 "node_slowdown must be empty or one factor per slave");
  const std::pair<double, double> stretch =
      slowdown_stretch(inputs.node_slowdown);

  Prediction out;
  const Bytes block = mebibytes(128);
  const int num_maps =
      inputs.num_maps > 0
          ? inputs.num_maps
          : std::max(1, static_cast<int>(std::ceil(
                            inputs.input_size.as_double() /
                            block.as_double())));
  const Bytes split = inputs.num_maps > 0 && inputs.input_size > Bytes(0)
                          ? inputs.input_size * (1.0 / inputs.num_maps)
                          : (inputs.input_size > Bytes(0) ? block : Bytes(0));

  // --- geometry ---------------------------------------------------------------
  out.map_slots_per_node =
      slots_per_node(hw, cfg.map_memory_mb, cfg.map_cpu_vcores);
  out.reduce_slots_per_node =
      slots_per_node(hw, cfg.reduce_memory_mb, cfg.reduce_cpu_vcores);
  MRON_CHECK_MSG(out.map_slots_per_node > 0, "map container exceeds a node");
  const int map_concurrency = out.map_slots_per_node * slaves;
  out.map_waves = (num_maps + map_concurrency - 1) / map_concurrency;

  // --- map task ---------------------------------------------------------------
  const Bytes map_out = split * p.map_output_ratio + p.map_output_bytes_fixed;
  const auto map_records = static_cast<std::int64_t>(std::llround(
      map_out.as_double() / p.map_record_bytes));
  const auto plan =
      mapreduce::plan_map_spills(map_out, map_records, p.combiner_ratio, cfg);
  out.map_spill_records =
      plan.spill_records * static_cast<std::int64_t>(num_maps);
  const bool compress = cfg.map_output_compress >= 0.5;
  const double codec = compress ? kCodecCompressionRatio : 1.0;

  // Node-level contention: assume all slots busy with like tasks.
  const int streams = out.map_slots_per_node;
  const double read_secs = split.as_double() / disk_rate(hw, streams);
  const double cpu =
      (split.mib() * p.map_cpu_secs_per_mib + p.map_cpu_secs_fixed) /
      cpu_rate(hw, cfg.map_cpu_vcores * hw.cpu_quota_per_vcore,
               p.map_cpu_demand_cores, streams);
  const double spill_secs =
      (plan.disk_write_bytes + plan.disk_read_bytes).as_double() * codec /
      disk_rate(hw, streams);
  out.map_task_secs =
      p.task_startup_secs + std::max(read_secs, cpu) + spill_secs;
  out.map_phase_secs = phase_secs(out.map_waves, out.map_task_secs, stretch);

  // --- reduce task ------------------------------------------------------------
  const Bytes total_shuffle = map_out * p.combiner_ratio * codec *
                              static_cast<double>(num_maps);
  out.shuffle_bytes = total_shuffle;
  if (inputs.num_reduces > 0 && out.reduce_slots_per_node == 0) {
    // An oversized reduce container fits nowhere. Skipping the phase (the
    // old behavior) scored such configs as free; make them infinitely
    // expensive so no search can ever pick one.
    out.reduce_task_secs = std::numeric_limits<double>::infinity();
    out.reduce_phase_secs = std::numeric_limits<double>::infinity();
    out.total_secs = std::numeric_limits<double>::infinity();
    return out;
  }
  if (inputs.num_reduces > 0 && out.reduce_slots_per_node > 0) {
    const int reduce_concurrency = out.reduce_slots_per_node * slaves;
    out.reduce_waves =
        (inputs.num_reduces + reduce_concurrency - 1) / reduce_concurrency;
    const Bytes partition =
        total_shuffle * (1.0 / inputs.num_reduces);

    // Fetch: receiver NICs are the contended resource; each node hosts
    // reduce_slots_per_node concurrent fetchers. Connections are per host
    // visit: maps spread evenly over min(maps, slaves) hosts, each host
    // needs ceil(its maps / kMaxSegmentsPerFetch) visits, and
    // parallelcopies of them (at most one per host) overlap.
    const int hosts = std::max(1, std::min(num_maps, slaves));
    const int per_host = num_maps / hosts;
    const int extra = num_maps % hosts;
    const auto visits_for = [](int maps) {
      return (maps + mapreduce::kMaxSegmentsPerFetch - 1) /
             mapreduce::kMaxSegmentsPerFetch;
    };
    const double connections =
        static_cast<double>(extra * visits_for(per_host + 1) +
                            (hosts - extra) * visits_for(per_host));
    const double net_secs =
        partition.as_double() /
            (hw.nic_bandwidth.rate() /
             std::max(1, out.reduce_slots_per_node)) +
        connections /
            std::min(std::max(1.0, cfg.shuffle_parallelcopies),
                     static_cast<double>(hosts)) *
            mapreduce::kFetchLatency;

    // Buffer mechanics via the shared model, fed with equal segments. The
    // closed-form kernel makes this O(1) in num_maps (bit-exact against
    // the incremental add_segment loop).
    mapreduce::ShuffleBufferModel buffer(cfg,
                                         p.map_record_bytes * codec);
    const Bytes segment = partition * (1.0 / num_maps);
    Bytes disk_in_shuffle = buffer.add_segments(num_maps, segment);
    disk_in_shuffle += buffer.finalize();
    const auto merge = mapreduce::plan_disk_merge(
        buffer.disk_files(), static_cast<int>(cfg.io_sort_factor));
    const int rstreams = out.reduce_slots_per_node;
    const double shuffle_disk_secs =
        disk_in_shuffle.as_double() / disk_rate(hw, rstreams);
    const double merge_secs =
        (merge.read + merge.write).as_double() / disk_rate(hw, rstreams);
    const double logical_mib = partition.mib() / codec;
    double reduce_cpu_secs =
        logical_mib * p.reduce_cpu_secs_per_mib /
        cpu_rate(hw, cfg.reduce_cpu_vcores * hw.cpu_quota_per_vcore,
                 p.reduce_cpu_demand_cores, rstreams);
    if (compress) {
      reduce_cpu_secs += logical_mib * mapreduce::kDecompressCpuSecsPerMib;
    }
    const double final_read_secs =
        buffer.disk_write_bytes().as_double() / disk_rate(hw, rstreams);
    const Bytes output = partition * (p.reduce_output_ratio / codec);
    const double write_secs =
        std::max(output.as_double() / disk_rate(hw, rstreams),
                 output.as_double() / hw.nic_bandwidth.rate());

    out.reduce_task_secs = p.task_startup_secs + net_secs +
                           shuffle_disk_secs + merge_secs +
                           std::max(reduce_cpu_secs, final_read_secs) +
                           write_secs;
    out.reduce_phase_secs =
        phase_secs(out.reduce_waves, out.reduce_task_secs, stretch);
  }

  // Shuffle overlaps the map phase (slowstart); the reduce compute tail
  // does not. Empirically the overlap hides roughly the fetch component,
  // which is why the tail below keeps everything else.
  out.total_secs = out.map_phase_secs + out.reduce_phase_secs;
  return out;
}

namespace {

/// One search chain: random restarts + coordinate refinement. Cheap model
/// calls make a simple search sufficient (Starfish uses recursive random
/// search). A probe is one predict() call (~220 ns); a score cache was
/// measured slower than re-predicting, so there is none.
std::pair<JobConfig, double> search_chain(const PredictionInputs& base,
                                          int evaluations,
                                          std::uint64_t seed) {
  const auto& reg = mapreduce::ParamRegistry::standard();
  Rng rng(seed);

  JobConfig best = base.config;
  mapreduce::clamp_constraints(best);
  auto score = [&](const JobConfig& cfg) {
    PredictionInputs probe = base;
    probe.config = cfg;
    return predict(probe).total_secs;
  };
  double best_secs = score(best);

  for (int e = 0; e < evaluations; ++e) {
    JobConfig cand = best;
    if (e % 3 == 0) {
      // Fresh random point.
      for (std::size_t i = 0; i < reg.size(); ++i) {
        const auto& prm = reg.at(i);
        reg.set(cand, i, rng.uniform(prm.min, prm.max));
      }
    } else {
      // Perturb one coordinate of the incumbent.
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reg.size()) - 1));
      const auto& prm = reg.at(i);
      const double width = (prm.max - prm.min) * 0.2;
      reg.set(cand, i,
              reg.get(best, i) + rng.uniform(-width, width));
    }
    mapreduce::clamp_constraints(cand);
    const double secs = score(cand);
    if (secs < best_secs) {
      best_secs = secs;
      best = cand;
    }
  }
  return {best, best_secs};
}

}  // namespace

JobConfig optimize_with_model(const PredictionInputs& base, int evaluations,
                              std::uint64_t seed, int restarts, int jobs) {
  MRON_CHECK(evaluations >= 1);
  MRON_CHECK(restarts >= 1);

  if (restarts == 1) return search_chain(base, evaluations, seed).first;

  // Independent chains with forked seeds, fanned across the pool. Chain
  // results (and therefore the winner) are a pure function of
  // (seed, restarts, evaluations) — `jobs` only buys wall-clock time.
  const int per_chain = std::max(1, evaluations / restarts);
  sim::ParallelRunner pool(jobs);
  const auto chains = pool.map<std::pair<JobConfig, double>>(
      static_cast<std::size_t>(restarts), [&](std::size_t k) {
        Rng salter(seed);
        return search_chain(base, per_chain, salter.fork(k + 1)());
      });
  std::size_t winner = 0;
  for (std::size_t k = 1; k < chains.size(); ++k) {
    if (chains[k].second < chains[winner].second) winner = k;
  }
  return chains[winner].first;
}

}  // namespace mron::whatif
