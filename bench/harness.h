// Shared experiment harness for the per-figure bench binaries.
//
// Mirrors Section 8.1's methodology: the paper's 19-node cluster, four
// repetitions per data point (averaged), expedited-test-run tuning for the
// aggressive figures and in-run conservative tuning for the fast-single-run
// figures. Each bench binary regenerates one table or figure of the paper
// as an ASCII table, with the paper's reported numbers alongside where
// applicable.
#pragma once

#include <string>
#include <vector>

#include "baselines/offline_guide.h"
#include "common/table.h"
#include "faults/fault_plan.h"
#include "mapreduce/simulation.h"
#include "sim/parallel_runner.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

namespace mron::bench {

/// Seeds for the paper's "repeat each experiment four times".
inline std::vector<std::uint64_t> repeat_seeds() { return {101, 202, 303, 404}; }

/// Flight-recorder export destinations for a bench binary. When any path is
/// set, every simulation the harness builds runs with observation on, and
/// the artifacts are rewritten after each run (so the files describe the
/// last simulation of the binary).
struct ObsOutputs {
  std::string metrics_out;  ///< MetricsRegistry JSON
  std::string trace_out;    ///< Chrome trace_event JSON (chrome://tracing)
  std::string audit_out;    ///< tuner decision log, JSONL
  std::string report_out;   ///< versioned run_report.json (obs/report.h)
  bool trace_detail = false;  ///< per-phase spans + shuffle fetch spans
  [[nodiscard]] bool any() const {
    return !metrics_out.empty() || !trace_out.empty() ||
           !audit_out.empty() || !report_out.empty();
  }
};
void set_obs_outputs(ObsOutputs outputs);
[[nodiscard]] const ObsOutputs& obs_outputs();

/// Fault plan applied to every simulation the harness builds (benchmarks
/// under failures, FAULTS.md). Empty (the default) keeps the cluster
/// reliable. Set from --fault-plan=FILE / --fault-spec="directives".
void set_fault_plan(faults::FaultPlan plan);
[[nodiscard]] const faults::FaultPlan& fault_plan();

/// Cluster every simulation the harness builds runs on. Defaults to the
/// paper's 19-node testbed; set from --cluster=SPEC (a preset like
/// "nodes:1024", an inline group spec, or a spec file — see
/// cluster/cluster_spec.h for the grammar).
void set_cluster_spec(cluster::ClusterSpec spec);
[[nodiscard]] const cluster::ClusterSpec& cluster_spec();

/// Worker-thread count for the experiment fan-out (repeat seeds, per-app
/// figure rows, sweep points). 1 = fully serial on the calling thread.
void set_jobs(int jobs);
[[nodiscard]] int jobs();
/// The shared work-stealing pool, sized by set_jobs() at first use. Results
/// are always delivered in task order, so output is identical at any jobs
/// value.
[[nodiscard]] sim::ParallelRunner& runner();

/// Parse the shared bench flags (--jobs=N --metrics-out=F --trace-out=F
/// --audit-out=F --trace-detail --fault-plan=F --fault-spec=S) and install
/// them via set_obs_outputs() / set_jobs() / set_fault_plan(). Every bench
/// main calls this first. Unknown flags print usage and exit(2); a bad
/// --cluster/--fault-plan/--fault-spec, or a plan naming a node outside the
/// cluster, prints one "error: ..." line and exits 2.
void init_obs_from_flags(int argc, char** argv);

struct RunStats {
  double exec_secs = 0.0;
  double map_spilled = 0.0;    ///< map-side SPILLED_RECORDS
  double total_spilled = 0.0;  ///< map + reduce
  double optimal_spilled = 0.0;
  double map_mem_util = 0.0;
  double reduce_mem_util = 0.0;
  double map_cpu_util = 0.0;
  double reduce_cpu_util = 0.0;
  int failed_attempts = 0;
};

/// One plain run of a benchmark (no tuner). `terasort_bytes` overrides the
/// Terasort input size (0 = the paper's 100 GB); ignored otherwise.
RunStats run_plain(workloads::Benchmark b, workloads::Corpus c,
                   const mapreduce::JobConfig& cfg, std::uint64_t seed,
                   Bytes terasort_bytes = Bytes(0), int terasort_reduces = -1);

/// Average of run_plain over the four repeat seeds.
RunStats run_averaged(workloads::Benchmark b, workloads::Corpus c,
                      const mapreduce::JobConfig& cfg,
                      Bytes terasort_bytes = Bytes(0),
                      int terasort_reduces = -1);

struct TuneResult {
  mapreduce::JobConfig config;
  double test_run_secs = 0.0;
  int waves = 0;
  int configs_tried = 0;
};

/// One aggressive (expedited) MRONLINE test run; returns the discovered
/// configuration.
TuneResult tune_aggressive(workloads::Benchmark b, workloads::Corpus c,
                           std::uint64_t seed = 77,
                           Bytes terasort_bytes = Bytes(0),
                           int terasort_reduces = -1,
                           tuner::TunerOptions options = {});

/// One run with the conservative tuner riding along (fast single run).
RunStats run_conservative(workloads::Benchmark b, workloads::Corpus c,
                          std::uint64_t seed,
                          Bytes terasort_bytes = Bytes(0),
                          int terasort_reduces = -1);
RunStats run_conservative_averaged(workloads::Benchmark b,
                                   workloads::Corpus c,
                                   Bytes terasort_bytes = Bytes(0),
                                   int terasort_reduces = -1);

/// The offline-guide static configuration for a benchmark.
mapreduce::JobConfig offline_config(workloads::Benchmark b,
                                    workloads::Corpus c,
                                    Bytes terasort_bytes = Bytes(0),
                                    int terasort_reduces = -1);

/// Percent improvement of `tuned` over `base`.
double improvement_pct(double base, double tuned);

/// Standard header printed by every figure bench.
void print_preamble(const std::string& figure, const std::string& caption);

/// One app of an expedited-test-runs figure (Figures 4-6).
struct ExpeditedApp {
  workloads::Benchmark benchmark;
  workloads::Corpus corpus;
  std::string label;
  double paper_improvement_pct;  ///< what the paper reports vs default
};

/// Figures 4-6: exec time under Default / Offline guide / MRONLINE.
void expedited_figure(const std::string& figure,
                      const std::vector<ExpeditedApp>& apps);

/// Figures 7-9: map-side spill records under Optimal / Default / Offline /
/// MRONLINE.
void spill_figure(const std::string& figure,
                  const std::vector<ExpeditedApp>& apps);

/// Figures 10-12: exec time under Default / MRONLINE-conservative.
void single_run_figure(const std::string& figure,
                       const std::vector<ExpeditedApp>& apps);

/// The Section-8.5 multi-tenant experiment: Terasort(60 GB, 448 maps? the
/// paper says 448/200 — our blocks give 480) + BBP, fair scheduler, run with
/// default configs and with per-job MRONLINE-derived configs.
struct MultiTenantOutcome {
  RunStats terasort_default, terasort_tuned;
  RunStats bbp_default, bbp_tuned;
};
MultiTenantOutcome multi_tenant_experiment();

}  // namespace mron::bench
