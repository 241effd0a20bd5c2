// Figures 14, 15 and 16: Terasort (60 GB) and BBP sharing the cluster under
// the fair scheduler, default configs vs MRONLINE-derived per-job configs,
// from one multi-tenant experiment.
//   Figure 14: exec time. Paper: 13% (Terasort) and 28% (BBP).
//   Figure 15: memory utilization of mappers/reducers. Paper: below 50%
//              under the default configs, above 80% under MRONLINE.
//   Figure 16: CPU utilization. Paper: default below 25% except BBP-m at
//              ~99% (saturated on its 1-vcore quota); MRONLINE raises BBP's
//              allocation.
#include <iostream>

#include "bench/harness.h"

using namespace mron;
using bench::RunStats;

namespace {

/// Figures 15 and 16: one utilization per task group, default vs MRONLINE.
void utilization_table(const bench::MultiTenantOutcome& out,
                       double RunStats::*map_util,
                       double RunStats::*reduce_util) {
  auto pct = [](double v) { return TextTable::num(100.0 * v, 0) + "%"; };
  TextTable table({"Task group", "Default", "MRONLINE"});
  table.add_row({"Terasort-m", pct(out.terasort_default.*map_util),
                 pct(out.terasort_tuned.*map_util)});
  table.add_row({"Terasort-r", pct(out.terasort_default.*reduce_util),
                 pct(out.terasort_tuned.*reduce_util)});
  table.add_row({"BBP-m", pct(out.bbp_default.*map_util),
                 pct(out.bbp_tuned.*map_util)});
  table.add_row({"BBP-r", pct(out.bbp_default.*reduce_util),
                 pct(out.bbp_tuned.*reduce_util)});
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  mron::bench::init_obs_from_flags(argc, argv);
  const bench::MultiTenantOutcome out = bench::multi_tenant_experiment();

  bench::print_preamble("Figure 14",
                        "multi-tenant execution time (fair scheduler): "
                        "Terasort 60 GB + BBP");
  TextTable table(
      {"Application", "Default (s)", "MRONLINE (s)", "Improvement", "Paper"});
  table.add_row({"Terasort",
                 TextTable::num(out.terasort_default.exec_secs, 0),
                 TextTable::num(out.terasort_tuned.exec_secs, 0),
                 TextTable::num(bench::improvement_pct(
                                    out.terasort_default.exec_secs,
                                    out.terasort_tuned.exec_secs),
                                1) +
                     "%",
                 "13%"});
  table.add_row({"BBP", TextTable::num(out.bbp_default.exec_secs, 0),
                 TextTable::num(out.bbp_tuned.exec_secs, 0),
                 TextTable::num(bench::improvement_pct(
                                    out.bbp_default.exec_secs,
                                    out.bbp_tuned.exec_secs),
                                1) +
                     "%",
                 "28%"});
  table.print(std::cout);
  std::cout << "Terasort total spilled records: "
            << TextTable::num(out.terasort_default.total_spilled / 1e9, 2)
            << "e9 (default) -> "
            << TextTable::num(out.terasort_tuned.total_spilled / 1e9, 2)
            << "e9 (MRONLINE); paper: 1.8e9 -> 0.6e9\n";

  bench::print_preamble(
      "Figure 15", "multi-tenant memory utilization (paper: default <50%, "
                   "MRONLINE >80%)");
  utilization_table(out, &RunStats::map_mem_util, &RunStats::reduce_mem_util);

  bench::print_preamble(
      "Figure 16",
      "multi-tenant CPU utilization (paper: default <25% except BBP-m ~99%)");
  utilization_table(out, &RunStats::map_cpu_util, &RunStats::reduce_cpu_util);
  return 0;
}
