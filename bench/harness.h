// Shared experiment harness for the per-figure bench binaries.
//
// Mirrors Section 8.1's methodology: the paper's 19-node cluster, four
// repetitions per data point (averaged), expedited-test-run tuning for the
// aggressive figures and in-run conservative tuning for the fast-single-run
// figures. Each bench binary regenerates one table of the paper, or one
// family of figures that read the same experiments, as ASCII tables, with
// the paper's reported numbers alongside where applicable.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "baselines/offline_guide.h"
#include "common/table.h"
#include "mapreduce/simulation.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

namespace mron::bench {

/// Seeds for the paper's "repeat each experiment four times".
inline std::vector<std::uint64_t> repeat_seeds() { return {101, 202, 303, 404}; }

/// Worker-thread count for the experiment fan-out (repeat seeds, per-app
/// figure rows, sweep points). 1 = fully serial on the calling thread.
/// Results are always delivered in task order, so output is identical at
/// any jobs value.
[[nodiscard]] int jobs();

/// Parse the shared bench flags through common/Flags: --jobs=N,
/// --cluster=SPEC (the paper's 19-node testbed by default), --fault-plan=F
/// or --fault-spec=S (FAULTS.md), and the artifact flags of
/// mapreduce::RunExports. Each artifact file describes the binary's
/// greatest-keyed run (its aggressive tuning run, if any), so it is
/// byte-identical at any --jobs. Every bench main calls this first; bad
/// input prints one "error: ..." line and exits 2 before any run.
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
};

/// One run of the job `make` builds inside the simulation (a benchmark
/// with its own tweaks: skew, a config, a size), on the harness's cluster
/// and fault plan, observed for and offered to the artifact flags under
/// `phase`. Every bench simulation goes through here or the runs below.
mapreduce::JobResult run_job(
    workloads::Benchmark b, workloads::Corpus c, std::uint64_t seed,
    const std::string& phase,
    const std::function<mapreduce::JobSpec(mapreduce::Simulation&)>& make);

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

/// Percent improvement of `tuned` over `base`.
double improvement_pct(double base, double tuned);

/// Standard header printed by every figure bench.
void print_preamble(const std::string& figure, const std::string& caption);

/// One app of a data set's figure family (Figures 4/7/10, 5/8/11, 6/9/12).
struct ExpeditedApp {
  workloads::Benchmark benchmark;
  workloads::Corpus corpus;
  std::string label;
  double paper_expedited_pct;   ///< the paper's improvement vs default, 4-6
  double paper_single_run_pct;  ///< the same for the fast single run, 10-12
};

/// Figures n, n+3 and n+6 for one data set (n = `first_figure`, 4 to 6),
/// printed from one set of simulations per app: exec time of the expedited
/// test runs under Default / Offline guide / MRONLINE (Figures 4-6),
/// map-side spill records under Optimal / Default / Offline / MRONLINE
/// (7-9), and exec time of the fast single run, Default vs
/// MRONLINE-conservative (10-12).
void app_figures(int first_figure, const std::vector<ExpeditedApp>& apps);

/// The Section-8.5 multi-tenant experiment: Terasort (60 GB, 200 reduces)
/// + BBP, fair scheduler, run with default configs and with per-job
/// MRONLINE-derived configs. The paper's Terasort has 448 maps; our 128 MiB
/// blocks give 480.
struct MultiTenantOutcome {
  RunStats terasort_default, terasort_tuned;
  RunStats bbp_default, bbp_tuned;
};
MultiTenantOutcome multi_tenant_experiment();

}  // namespace mron::bench
