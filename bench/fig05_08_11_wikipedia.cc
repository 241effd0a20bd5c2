// Figures 5, 8 and 11: the four text applications on the Wikipedia data
// set, from one set of simulations per application.
//   Figure 5: exec time, expedited test runs. Paper improvements vs
//             default: Bigram 25%, InvertedIndex 11%, Wordcount 14%,
//             TextSearch 19%.
//   Figure 8: map-side spill records.
//   Figure 11: exec time, fast single run. The paper reports gains from 8%
//              (Wordcount) up to ~20%.
#include "bench/harness.h"

using namespace mron;
using workloads::Benchmark;
using workloads::Corpus;

int main(int argc, char** argv) {
  mron::bench::init_obs_from_flags(argc, argv);
  bench::app_figures(
      5,
      {{Benchmark::Bigram, Corpus::Wikipedia, "Bigram", 25.0, 18.0},
       {Benchmark::InvertedIndex, Corpus::Wikipedia, "InvertedIndex", 11.0,
        10.0},
       {Benchmark::WordCount, Corpus::Wikipedia, "WC", 14.0, 8.0},
       {Benchmark::TextSearch, Corpus::Wikipedia, "TextSearch", 19.0, 12.0}});
  return 0;
}
