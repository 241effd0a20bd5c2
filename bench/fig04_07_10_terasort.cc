// Figures 4, 7 and 10: Terasort (100 GB) under the default YARN
// configuration, the offline tuning guide, MRONLINE's expedited test run
// and its fast single run, from one set of simulations.
//   Figure 4: exec time; the paper reports a 23% improvement over default.
//   Figure 7: map-side spill records; the paper shows Offline and MRONLINE
//             both reaching the optimal record count while Default writes
//             ~2x.
//   Figure 10: exec time of the fast single run, the conservative tuner
//              riding along with the job's only execution; paper band:
//              8-22% improvement across the suite.
#include "bench/harness.h"

using namespace mron;

int main(int argc, char** argv) {
  mron::bench::init_obs_from_flags(argc, argv);
  bench::app_figures(4, {{workloads::Benchmark::Terasort,
                          workloads::Corpus::Synthetic, "Terasort", 23.0,
                          15.0}});
  return 0;
}
