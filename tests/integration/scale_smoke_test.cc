// Scaled smoke tests: faulted Terasorts at 1,024 and 10,240 nodes must
// complete, recover their lost work, and reproduce exactly. The 19-node
// integration suites exercise the same machinery in depth; these pin the
// scaled regimes, where the indexed scheduler/monitor paths, the per-rack
// series aggregation, the heartbeat silent-set, and the engine's
// million-entry event heap are the ones doing the work.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "cluster/cluster_spec.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::mapreduce {
namespace {

// taskfail guarantees recovery work regardless of which of the 1,023
// nodes the (tiny, relative to the cluster) job happens to land on;
// the crashes exercise heartbeat detection + reclaim at scale.
const char* kScalePlan =
    "seed 9\n"
    "heartbeat period=0.5 timeout=3\n"
    "taskfail prob=0.08\n"
    "crash node=100 at=30\n"
    "crash node=700 at=40 restart=90\n";

struct Outcome {
  JobResult result;
  faults::FaultStats stats;
};

Outcome run_faulted(int slaves, std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(slaves);
  opt.seed = seed;
  opt.fault_plan = faults::FaultPlan::parse(kScalePlan);
  Simulation sim(opt);
  JobSpec spec = workloads::make_terasort(sim, mebibytes(128.0 * 48), 12);
  spec.speculative_execution = true;
  Outcome out;
  sim.submit_job(std::move(spec),
                 [&](const JobResult& r) { out.result = r; });
  sim.run();
  out.stats = sim.fault_injector()->stats();
  return out;
}

Outcome run_faulted_1024(std::uint64_t seed) { return run_faulted(1023, seed); }

// Reports carry every attempt (retries, speculative backups); the job is
// whole when every task index has at least one non-failed attempt.
std::size_t completed_tasks(const std::vector<TaskReport>& reports) {
  std::set<int> done;
  for (const TaskReport& r : reports) {
    if (!r.failed_oom && !r.failed_injected) done.insert(r.task.index);
  }
  return done.size();
}

TEST(ScaleSmoke, FaultedTerasortOn1024NodesCompletesAndRecovers) {
  const Outcome out = run_faulted_1024(17);
  EXPECT_GE(out.result.map_reports.size(), 48u);
  EXPECT_EQ(completed_tasks(out.result.map_reports), 48u);
  EXPECT_EQ(completed_tasks(out.result.reduce_reports), 12u);
  EXPECT_GT(out.result.exec_time(), 0.0);
  // The plan must actually have bitten: killed attempts were retried.
  EXPECT_GT(out.stats.injected_task_failures, 0);
  EXPECT_GT(out.result.counters.failed_task_attempts, 0);
}

TEST(ScaleSmoke, FaultedRunAtScaleIsSeedDeterministic) {
  const Outcome a = run_faulted_1024(17);
  const Outcome b = run_faulted_1024(17);
  EXPECT_DOUBLE_EQ(a.result.finish_time, b.result.finish_time);
  EXPECT_EQ(a.result.counters.failed_task_attempts,
            b.result.counters.failed_task_attempts);
  EXPECT_EQ(a.stats.injected_task_failures,
            b.stats.injected_task_failures);
}

// The 10k regime: 10,239 slaves is ~10x past the point where any residual
// O(n)-per-event scan or O(log n) queue operation turns the run from
// seconds into minutes. Faults + speculation keep the event pattern
// adversarial (cancels racing completions feed the queue's tombstone
// path).
TEST(ScaleSmoke, FaultedTerasortOn10240NodesCompletesAndRecovers) {
  const Outcome out = run_faulted(10239, 17);
  EXPECT_GE(out.result.map_reports.size(), 48u);
  EXPECT_EQ(completed_tasks(out.result.map_reports), 48u);
  EXPECT_EQ(completed_tasks(out.result.reduce_reports), 12u);
  EXPECT_GT(out.result.exec_time(), 0.0);
  EXPECT_GT(out.stats.injected_task_failures, 0);
}

TEST(ScaleSmoke, FaultedRunAt10240NodesIsSeedDeterministic) {
  const Outcome a = run_faulted(10239, 17);
  const Outcome b = run_faulted(10239, 17);
  EXPECT_DOUBLE_EQ(a.result.finish_time, b.result.finish_time);
  EXPECT_EQ(a.result.counters.failed_task_attempts,
            b.result.counters.failed_task_attempts);
  EXPECT_EQ(a.stats.injected_task_failures, b.stats.injected_task_failures);
}

}  // namespace
}  // namespace mron::mapreduce
