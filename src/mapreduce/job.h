// Job specification, task references, and result/report types.
#pragma once

#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/strong_id.h"
#include "common/units.h"
#include "dfs/dfs.h"
#include "mapreduce/app_profile.h"
#include "mapreduce/counters.h"
#include "mapreduce/params.h"

namespace mron::mapreduce {

struct JobTag {};
using JobId = StrongId<JobTag>;

enum class TaskKind { Map, Reduce };

struct TaskRef {
  TaskKind kind = TaskKind::Map;
  int index = 0;

  friend bool operator==(const TaskRef&, const TaskRef&) = default;
  friend bool operator<(const TaskRef& a, const TaskRef& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.index < b.index;
  }
};

struct JobSpec {
  std::string name;
  /// Input dataset; invalid id means a compute-only job (e.g. BBP) whose
  /// map count comes from `num_maps_override`.
  dfs::DatasetId input;
  int num_maps_override = -1;
  int num_reduces = 1;
  AppProfile profile;
  JobConfig config;
  /// Fraction of maps that must complete before reducers launch
  /// (mapreduce.job.reduce.slowstart.completedmaps — category I).
  double slowstart = 0.05;
  /// Multiplicative noise CV applied to task service demands.
  double noise_cv = 0.08;
  int max_task_attempts = 4;
  /// Base delay before re-running a failed (injected-fault) attempt; the
  /// actual delay doubles per prior attempt (exponential backoff, capped at
  /// 60 s), matching Hadoop's task-retry pacing.
  double retry_backoff_secs = 2.0;
  /// Speculative execution (mapreduce.map.speculative): once half the maps
  /// finished and none remain queued, a running map slower than
  /// `speculative_slowdown` x the mean completed duration gets a backup
  /// attempt; the first finisher wins and the other is killed.
  bool speculative_execution = false;
  double speculative_slowdown = 1.5;
};

struct TaskReport {
  TaskRef task;
  int attempt = 0;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  JobConfig config;
  cluster::NodeId node;
  dfs::Locality locality = dfs::Locality::NodeLocal;  // maps only
  double cpu_util = 0.0;  ///< cpu-seconds / (vcore quota * duration)
  double mem_util = 0.0;  ///< average resident set / container memory
  /// Peak committed memory (working set + full buffers) over the container:
  /// > 1 means the attempt OOMs; near 1 means it is one working-set blip
  /// away from an OOM kill.
  double mem_commit = 0.0;
  TaskCounters counters;
  bool failed_oom = false;
  /// The attempt was killed by an injected fault (FaultPlan task_fail_prob
  /// or its node dying). Such reports carry no useful cost signal.
  bool failed_injected = false;
  /// The attempt ran (even partly) on a node that was degraded or crashed
  /// during its lifetime — its duration is hardware-noise, not a config
  /// signal, and the tuner may discard it (TunerOptions::discard_faulted).
  bool faulted = false;

  [[nodiscard]] double duration() const { return end_time - start_time; }
};

struct JobResult {
  JobId id;
  std::string name;
  SimTime submit_time = 0.0;
  SimTime finish_time = 0.0;
  JobCounters counters;
  int speculative_launches = 0;
  int speculative_wins = 0;
  // Failure-recovery tallies (fault injection).
  int injected_failures = 0;      ///< attempts killed by the fault injector
  int fetch_failures = 0;         ///< shuffle fetches failed over by the AM
  int lost_maps_reexecuted = 0;   ///< completed maps re-run after node loss
  std::vector<TaskReport> map_reports;
  std::vector<TaskReport> reduce_reports;

  [[nodiscard]] double exec_time() const { return finish_time - submit_time; }
  [[nodiscard]] double avg_util(TaskKind kind, bool cpu) const {
    const auto& reports =
        kind == TaskKind::Map ? map_reports : reduce_reports;
    if (reports.empty()) return 0.0;
    double sum = 0.0;
    int n = 0;
    for (const auto& r : reports) {
      if (r.failed_oom) continue;
      sum += cpu ? r.cpu_util : r.mem_util;
      ++n;
    }
    return n == 0 ? 0.0 : sum / n;
  }
};

const char* task_kind_name(TaskKind kind);

}  // namespace mron::mapreduce
