// Versioned run report: one self-describing JSON artifact per run.
//
// A RunReport rolls a whole simulation up into the comparable unit the
// benchmarking follow-ups to the paper argue for: run metadata (what ran,
// on what seed, under what configuration), per-job counter rollups
// (task -> job done by the AM, job -> run done here), every registry metric
// scalar (histograms with interpolated p50/p95/p99), the whole-run time
// series (node occupancy, wave progress, tuner convergence), and the audit
// event count. tools/mron_report.py renders it as an HTML report;
// tools/mron_diff.py compares two of them.
//
// Determinism: every container is name-ordered and every number goes
// through JsonWriter::number, so the same simulation serializes to the same
// bytes — the property the byte-identical-across---jobs acceptance test
// pins down.
//
// The obs layer knows nothing about MapReduce: ReportJob is a generic bag
// of named numbers, filled by mapreduce/report_rollup.h from a JobResult.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mron::obs {

class JsonWriter;
class Recorder;

/// Bump when the JSON layout changes shape (tools check this).
/// /2: added the top-level `faults` block (fault-injection plan parameters
/// and recovery tallies; empty object on fault-free runs).
/// /3: added the top-level `critical_path` block (per-job longest-path
/// segments + run-level blame totals) and, per histogram metric,
/// `<name>.overflow_count` / `<name>.p99_clamped` scalars.
/// /4: added the top-level `dfs` block (storage placement + re-replication
/// pipeline tallies; always present — blocks_total et al. describe the
/// dataset even on fault-free runs).
inline constexpr const char* kRunReportSchema = "mron.run_report/4";

/// One job's rollup inside a report. `phases` maps a phase name ("map",
/// "reduce") to its counter rollup; `stats` holds job-level scalars
/// (task counts, duration aggregates); `config` the parameter vector the
/// job ran with.
struct ReportJob {
  std::int64_t id = -1;
  std::string name;
  double submit_time = 0.0;
  double finish_time = 0.0;
  std::map<std::string, std::map<std::string, double>> phases;
  std::map<std::string, double> stats;
  std::map<std::string, double> config;
};

class RunReport {
 public:
  /// Free-form run metadata (app, seed, strategy, cluster...). Insertion
  /// order is preserved in the output; re-setting a key overwrites.
  void set_meta(const std::string& key, const std::string& value);
  void add_job(ReportJob job);
  /// Fault-injection block (plan parameters + recovery tallies), written
  /// under the top-level `faults` key. Empty (the default) serializes as an
  /// empty object — the self-describing "this run was fault-free" marker.
  void set_faults(std::map<std::string, double> faults);
  /// Storage block (placement counts + re-replication pipeline tallies),
  /// written under the top-level `dfs` key.
  void set_dfs(std::map<std::string, double> dfs);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& meta()
      const {
    return meta_;
  }
  [[nodiscard]] const std::vector<ReportJob>& jobs() const { return jobs_; }

  /// Run-level rollup: per-phase counters summed across jobs, plus
  /// exec_secs (first submit -> last finish), jobs, failed_attempts.
  [[nodiscard]] std::map<std::string, double> run_totals() const;

  /// Serialize. `rec` contributes the metrics/series/audit sections and may
  /// be null (a run without observe), leaving them empty.
  void write_json(std::ostream& os, const Recorder* rec) const;
  void write_json(JsonWriter& w, const Recorder* rec) const;
  [[nodiscard]] std::string to_json(const Recorder* rec) const;

 private:
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<ReportJob> jobs_;
  std::map<std::string, double> faults_;
  std::map<std::string, double> dfs_;
};

/// Picks which run's report a multi-run invocation exports. Runs race on
/// worker threads, so "last writer wins" is not deterministic; instead each
/// finished run offers (key, serialized report) and the collector keeps the
/// lexicographically greatest key. Distinct runs carry distinct keys (the
/// key embeds seed/phase/config digest); equal keys mean identical runs,
/// whose serialized bytes match — so the surviving file is byte-identical
/// at any --jobs value.
class ReportCollector {
 public:
  /// Record `json` under `key`; when it (weakly) beats the current best,
  /// rewrite `path` immediately, so the file is always whole and the last
  /// write is the final winner. Returns true when it won.
  bool offer(const std::string& key, const std::string& json,
             const std::string& path);

  [[nodiscard]] bool empty() const;

 private:
  mutable std::mutex mu_;
  std::string best_key_;
  std::string best_json_;
};

}  // namespace mron::obs
