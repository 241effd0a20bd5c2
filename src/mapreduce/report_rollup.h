// JobResult -> RunReport rollup: the MapReduce-aware half of the run
// report.
//
// The AM already rolls task counters up to JobCounters (task -> job); this
// header turns that plus the task reports into the generic obs::ReportJob
// shape (named numbers only), and assembles whole-run reports from a
// Simulation — obs stays MapReduce-agnostic, mapreduce stays
// serialization-agnostic.
// RunFlags and RunExports are the drivers' (mron_cli, bench harness) one
// front end: the run flags they share and their one artifact writer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job.h"
#include "mapreduce/simulation.h"
#include "obs/report.h"

namespace mron {
class Flags;
}

namespace mron::mapreduce {

/// Roll one finished job up into a report entry. `config` is the job-level
/// configuration it ran with (tuned runs pass the tuned config); the full
/// extended parameter registry is dumped into ReportJob::config.
obs::ReportJob report_job_from(const JobResult& result,
                               const JobConfig& config);

/// Assemble a whole-run report: meta entries (in order), one ReportJob per
/// (result, config) pair, serialized against the simulation's flight
/// recorder (series/metrics/audit sections are empty when observation is
/// off or compiled out). Returns the serialized JSON.
std::string run_report_json(
    const Simulation& sim,
    const std::vector<std::pair<const JobResult*, const JobConfig*>>& jobs,
    const std::vector<std::pair<std::string, std::string>>& meta);

/// Deterministic collector key for a run: "<phase>|<meta k=v...>|<config
/// digest>". Lexicographic order on these keys is the export priority —
/// higher phase strings beat lower ones, then meta, then config — and
/// distinct runs always produce distinct keys.
std::string run_report_key(
    const std::string& phase,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const JobConfig& config);

/// A 64-bit FNV-1a digest of what a run computed, chained through `h`
/// so one digest can cover every run of an invocation: the exec time, the
/// job counters and failure tallies, and every task report (task,
/// attempt, times, node, locality, utilisations, counters, flags and the
/// configuration it ran with). Doubles are hashed by their bits, so any
/// change to a simulated number changes the digest.
constexpr std::uint64_t kResultDigestSeed = 14695981039346656037ULL;
std::uint64_t result_digest(const JobResult& result,
                            std::uint64_t h = kResultDigestSeed);

/// The drivers' shared run flags: --jobs=N, in [1,
/// ParallelRunner::kMaxJobs], and the options every run of the invocation
/// shares: --cluster=SPEC (cluster/cluster_spec.h) and --fault-plan=F or
/// --fault-spec=S (FAULTS.md), the plan checked against the cluster.
struct RunFlags {
  int jobs = 1;
  SimulationOptions base;
};
RunFlags run_flags(const Flags& flags);

/// Writes each artifact a driver's flags ask for through its own
/// obs::ReportCollector, keyed by run_report_key, so every file describes
/// the same run, the greatest-keyed one offered from any thread, and is
/// byte-identical at any --jobs (host profile times aside).
class RunExports {
 public:
  /// Reads --report-out --metrics-out --trace-out --audit-out (bare:
  /// mron_report.json, mron_metrics.json, mron_trace.json,
  /// mron_audit.jsonl), --trace-detail and, with `profile`, --profile-out
  /// (bare: host_profile.json). Throws InputError "cannot write PATH" for
  /// an unwritable path.
  RunExports(const Flags& flags, bool profile);

  /// Observation the configured artifacts need.
  void apply(SimulationOptions& opt) const;

  /// Offer a finished run. `phase` ranks runs of one invocation, `meta`
  /// names what ran (a zero-padded "run_seed" is appended), and the first
  /// job's config completes the key.
  void offer(Simulation& sim, const std::string& phase,
             std::vector<std::pair<std::string, std::string>> meta,
             const std::vector<std::pair<const JobResult*, const JobConfig*>>&
                 jobs);

  /// Later runs are observed and offered for the report only.
  void report_only() { report_only_ = true; }

  /// Paths written so far: metrics, trace, audit, profile, report.
  [[nodiscard]] std::vector<std::string> written() const;

 private:
  /// Whether runs feed `c` now.
  [[nodiscard]] bool wants(const obs::ReportCollector& c) const {
    return !c.path().empty() && (!report_only_ || &c == &report_);
  }

  obs::ReportCollector report_, metrics_, trace_, audit_, profile_;
  bool trace_detail_;
  bool report_only_ = false;
};

}  // namespace mron::mapreduce
