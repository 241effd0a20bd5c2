// Visualize a job's execution: phase summary, per-node ASCII swimlanes,
// and a CSV trace written next to the binary for external tooling.
//
//   ./build/examples/job_timeline [--gb=20] [--fail-node=3] [--csv=out.csv]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "mapreduce/simulation.h"
#include "trace/timeline.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double gb = flags.get("gb", 20.0);
  const int fail_node = flags.get("fail-node", -1);
  const std::string csv_path = flags.get("csv", std::string());

  mapreduce::SimulationOptions opt;
  opt.seed = static_cast<std::uint64_t>(flags.get("seed", 11));
  mapreduce::Simulation sim(opt);
  mapreduce::JobSpec spec = workloads::make_terasort(sim, gibibytes(gb));
  mapreduce::JobResult result;
  sim.submit_job(std::move(spec),
                 [&](const mapreduce::JobResult& r) { result = r; });
  if (fail_node >= 0) {
    sim.engine().schedule_at(30.0, [&sim, fail_node] {
      std::printf("t=30s: failing node %d\n", fail_node);
      sim.rm().fail_node(cluster::NodeId(fail_node));
    });
  }
  sim.run();

  const trace::TimelineSummary s = trace::summarize(result);
  std::printf("Terasort %.0f GB: %.1f s total\n", gb, result.exec_time());
  std::printf("  map phase    %.1f .. %.1f s (avg task %.1f s, p95 %.1f s)\n",
              s.map_phase.start, s.map_phase.end, s.avg_map_secs,
              s.p95_map_secs);
  std::printf("  reduce phase %.1f .. %.1f s (avg task %.1f s, p95 %.1f s)\n",
              s.reduce_phase.start, s.reduce_phase.end, s.avg_reduce_secs,
              s.p95_reduce_secs);
  std::printf("  locality: %d node-local / %d rack / %d off-rack (%.0f%%)\n",
              s.node_local, s.rack_local, s.off_rack,
              100 * s.locality_fraction());
  std::printf("  failed attempts: %d\n\n", s.failed_attempts);

  std::cout << trace::render_swimlanes(result, sim.topology().num_nodes());

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    trace::write_task_csv(result, csv);
    std::printf("\nwrote per-attempt trace to %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const InputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
