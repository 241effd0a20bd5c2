// Figures 6, 9 and 12: the four text applications on the Freebase data
// set, from one set of simulations per application.
//   Figure 6: exec time, expedited test runs. Paper improvements vs
//             default: Bigram 30%, InvertedIndex 18%, Wordcount 20%,
//             TextSearch 25%.
//   Figure 9: map-side spill records.
//   Figure 12: exec time, fast single run. The paper reports up to 22%
//              (Bigram).
#include "bench/harness.h"

using namespace mron;
using workloads::Benchmark;
using workloads::Corpus;

int main(int argc, char** argv) {
  mron::bench::init_obs_from_flags(argc, argv);
  bench::app_figures(
      6,
      {{Benchmark::Bigram, Corpus::Freebase, "Bigram", 30.0, 22.0},
       {Benchmark::InvertedIndex, Corpus::Freebase, "InvertedIndex", 18.0,
        12.0},
       {Benchmark::WordCount, Corpus::Freebase, "WC", 20.0, 10.0},
       {Benchmark::TextSearch, Corpus::Freebase, "TextSearch", 25.0, 14.0}});
  return 0;
}
