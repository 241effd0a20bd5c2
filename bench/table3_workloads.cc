// Table 3: benchmark characteristics — declared (paper) values alongside
// the sizes the simulated workloads actually produce when run end-to-end.
#include <iostream>

#include "bench/harness.h"

using namespace mron;
using workloads::BenchmarkInfo;

int main(int argc, char** argv) {
  mron::bench::init_obs_from_flags(argc, argv);
  bench::print_preamble("Table 3",
                        "benchmarks and their characteristics (paper vs "
                        "modeled workload, measured by running each job)");
  TextTable table({"Benchmark", "Input", "Input", "Shuffle(P)", "Shuffle(M)",
                   "Output(P)", "Output(M)", "#Map,#Red", "Type"});
  for (const BenchmarkInfo& info : workloads::table3()) {
    // One run measures the modeled shuffle/output volumes.
    double out_ratio = 0.0;
    const mapreduce::JobResult r = bench::run_job(
        info.benchmark, info.corpus, /*seed=*/1, "plain",
        [&](mapreduce::Simulation& sim) {
          mapreduce::JobSpec spec =
              workloads::make_job(sim, info.benchmark, info.corpus);
          out_ratio = spec.profile.reduce_output_ratio;
          return spec;
        });
    Bytes shuffled{0};
    Bytes output{0};
    for (const auto& rep : r.reduce_reports) {
      shuffled += rep.counters.shuffle_bytes;
      output += rep.counters.shuffle_bytes * out_ratio;
    }
    auto gb = [](Bytes b) {
      return TextTable::num(b.as_double() / 1e9, 1) + " GB";
    };
    table.add_row({info.name, info.input_name, gb(info.input_size),
                   gb(info.shuffle_size), gb(shuffled), gb(info.output_size),
                   gb(output),
                   std::to_string(static_cast<int>(r.map_reports.size())) +
                       "," +
                       std::to_string(
                           static_cast<int>(r.reduce_reports.size())),
                   info.job_type});
  }
  table.print(std::cout);
  std::cout << "(P) = paper's Table 3, (M) = measured from the modeled "
               "workload\n";
  return 0;
}
