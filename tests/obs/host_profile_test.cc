// Host self-profiler invariants (obs/host_profile.h): frame aggregation,
// thread-safe concurrent frame stacks, engine category attribution (events
// inherit the scheduling context's subsystem, re-arms inherit
// transitively), the setup/steady phase split, export sanity — and the
// quarantine contract: run_report.json is byte-identical with profiling on
// or off, including under fault injection.
#include "obs/host_profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault_plan.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "obs/progress.h"
#include "sim/engine.h"
#include "sim/shared_server.h"
#include "workloads/benchmarks.h"

namespace mron::obs {
namespace {

TEST(HostProfiler, FramesAggregateByPathWithNesting) {
  HostProfiler hp;
  {
    HostProfiler::Activation on(&hp);
    for (int i = 0; i < 3; ++i) {
      HostProfiler::Frame outer("outer");
      HostProfiler::Frame inner("inner");
    }
    {
      HostProfiler::Frame other("other");
    }
  }
  std::ostringstream os;
  hp.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"path\": \"outer\", \"depth\": 0, \"count\": 3"),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"path\": \"outer/inner\", \"depth\": 1, \"count\": 3"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"path\": \"other\", \"depth\": 0, \"count\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"schema\": \"mron.host_profile/1\""),
            std::string::npos);
}

TEST(HostProfiler, FramesAreNoOpsWithoutActivation) {
  HostProfiler hp;
  {
    HostProfiler::Frame f("ignored");
  }
  std::ostringstream os;
  hp.write_json(os);
  EXPECT_EQ(os.str().find("ignored"), std::string::npos);
}

TEST(HostProfiler, ActivationNestsAndRestores) {
  HostProfiler a, b;
  HostProfiler::Activation on_a(&a);
  EXPECT_EQ(HostProfiler::current(), &a);
  {
    HostProfiler::Activation on_b(&b);
    EXPECT_EQ(HostProfiler::current(), &b);
    HostProfiler::Frame f("in_b");
  }
  EXPECT_EQ(HostProfiler::current(), &a);
  std::ostringstream os_a, os_b;
  a.write_json(os_a);
  b.write_json(os_b);
  EXPECT_EQ(os_a.str().find("in_b"), std::string::npos);
  EXPECT_NE(os_b.str().find("in_b"), std::string::npos);
}

TEST(HostProfiler, CatScopeNestsAndRestores) {
  const std::uint8_t base = HostProfiler::CatScope::current();
  {
    HostProfiler::CatScope dfs(HostCat::kDfs);
    EXPECT_EQ(HostProfiler::CatScope::current(),
              static_cast<std::uint8_t>(HostCat::kDfs));
    {
      HostProfiler::CatScope yarn(HostCat::kYarn);
      EXPECT_EQ(HostProfiler::CatScope::current(),
                static_cast<std::uint8_t>(HostCat::kYarn));
    }
    EXPECT_EQ(HostProfiler::CatScope::current(),
              static_cast<std::uint8_t>(HostCat::kDfs));
  }
  EXPECT_EQ(HostProfiler::CatScope::current(), base);
}

// The --jobs=N contract: every worker thread gets its own frame stack, the
// hot path never takes a lock, and export merges the per-thread trees.
TEST(HostProfiler, ConcurrentFrameStacksMergeAtExport) {
  constexpr int kThreads = 8;
  constexpr int kFramesPerThread = 5000;
  HostProfiler hp;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hp] {
      HostProfiler::Activation on(&hp);
      for (int i = 0; i < kFramesPerThread; ++i) {
        HostProfiler::Frame outer("work");
        HostProfiler::Frame inner("step");
      }
    });
  }
  for (auto& w : workers) w.join();
  std::ostringstream os;
  hp.write_json(os);
  const std::string json = os.str();
  const std::string want_count =
      std::to_string(kThreads * kFramesPerThread);
  EXPECT_NE(json.find("\"path\": \"work\", \"depth\": 0, \"count\": " +
                      want_count),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"path\": \"work/step\", \"depth\": 1, \"count\": " +
                      want_count),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"threads\": " + std::to_string(kThreads)),
            std::string::npos)
      << json;
}

TEST(HostProfiler, PhasesAccumulateAndReentryIsNoOp) {
  HostProfiler hp;
  EXPECT_EQ(hp.phase(), HostPhase::kSetup);
  hp.begin_phase(HostPhase::kSetup);  // re-entry: no-op
  EXPECT_EQ(hp.phase(), HostPhase::kSetup);
  hp.begin_phase(HostPhase::kSteady);
  EXPECT_EQ(hp.phase(), HostPhase::kSteady);
  // Both phases saw some wall time; the open phase keeps accumulating.
  EXPECT_GE(hp.phase_wall_ns(HostPhase::kSetup), 0);
  const std::int64_t steady0 = hp.phase_wall_ns(HostPhase::kSteady);
  const std::int64_t steady1 = hp.phase_wall_ns(HostPhase::kSteady);
  EXPECT_GE(steady1, steady0);
}

TEST(HostProfiler, RecordEventClampsUnknownCategories) {
  HostProfiler hp;
  hp.record_event(250, 10);  // out of range -> engine bucket
  EXPECT_EQ(hp.subsystem(HostCat::kEngine).count, 1);
  EXPECT_EQ(hp.subsystem(HostCat::kEngine).total_ticks, 10);
}

TEST(HostProfiler, ExportCarriesMemoryAndMeta) {
  HostProfiler hp;
  hp.set_memory("engine.queue_bytes", 4096.0);
  hp.set_meta("nodes", "19");
  std::ostringstream os;
  hp.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"engine.queue_bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"nodes\": \"19\""), std::string::npos);
  EXPECT_NE(json.find("\"rss_peak_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"rss_current_bytes\""), std::string::npos);
  // All eight subsystem keys are always present, zeros included.
  for (const char* key :
       {"\"engine\"", "\"shared_server\"", "\"monitor\"", "\"dfs\"",
        "\"yarn\"", "\"am_task\"", "\"tuner\"", "\"faults\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// Events inherit the subsystem category of the scheduling context, and
// events scheduled from inside a dispatched callback inherit that event's
// category (the dispatch loop re-establishes it around the callback).
TEST(HostProfiler, EngineAttributesEventsToSchedulingContext) {
  HostProfiler hp;
  sim::Engine eng;
  eng.set_host_profiler(&hp);
  {
    HostProfiler::CatScope dfs(HostCat::kDfs);
    eng.schedule_at(1.0, [&eng] {
      // Re-arm without an explicit category: inherits kDfs transitively.
      eng.schedule_after(1.0, [] {});
    });
  }
  {
    HostProfiler::CatScope yarn(HostCat::kYarn);
    eng.schedule_at(2.0, [] {});
  }
  eng.schedule_at(3.0, [] {});  // default context -> engine bucket
  eng.run();
  EXPECT_EQ(hp.subsystem(HostCat::kDfs).count, 2);
  EXPECT_EQ(hp.subsystem(HostCat::kYarn).count, 1);
  EXPECT_EQ(hp.subsystem(HostCat::kEngine).count, 1);
  // One clock read per event: subsystem counts cover every dispatch.
  std::int64_t events = 0;
  for (int c = 0; c < kNumHostCats; ++c) {
    events += hp.subsystem(static_cast<HostCat>(c)).count;
  }
  EXPECT_EQ(events, eng.total_dispatched());
}

// A server's completion event is the server's own work, but each stream's
// done() runs under the category of the code that submitted the stream, so
// what done() schedules is billed to that code. The categories follow their
// streams through a cancel and through the completion pass's compaction.
TEST(HostProfiler, SharedServerRunsDoneUnderTheSubmittersCategory) {
  HostProfiler hp;
  sim::Engine eng;
  eng.set_host_profiler(&hp);
  sim::SharedServer server(eng, 1.0, "disk");
  auto reschedule = [&eng] { eng.schedule_after(1.0, [] {}); };
  {
    HostProfiler::CatScope am(HostCat::kAmTask);
    server.submit(1.0, reschedule);
  }
  sim::StreamId cancelled;
  {
    HostProfiler::CatScope yarn(HostCat::kYarn);
    cancelled = server.submit(5.0, reschedule);
  }
  {
    HostProfiler::CatScope dfs(HostCat::kDfs);
    server.submit(3.0, reschedule);
  }
  server.cancel(cancelled);
  eng.run();
  // Two completion events (t=2 and t=4), one rescheduled event per done().
  EXPECT_EQ(hp.subsystem(HostCat::kSharedServer).count, 2);
  EXPECT_EQ(hp.subsystem(HostCat::kAmTask).count, 1);
  EXPECT_EQ(hp.subsystem(HostCat::kDfs).count, 1);
  EXPECT_EQ(hp.subsystem(HostCat::kYarn).count, 0);
}

// A simulation constructed with host_profile=true flips to kSteady inside
// run(), to kTeardown when the loop drains, and bills every event to a
// subsystem.
TEST(HostProfiler, SimulationSplitsSetupFromSteady) {
  mapreduce::SimulationOptions opt;
  opt.seed = 5;
  opt.host_profile = true;
  mapreduce::Simulation sim(opt);
  auto* hp = sim.host_profiler();
  ASSERT_NE(hp, nullptr);
  EXPECT_EQ(hp->phase(), HostPhase::kSetup);
  auto spec = workloads::make_terasort(sim, gibibytes(1));
  sim.run_job(std::move(spec));
  EXPECT_EQ(hp->phase(), HostPhase::kTeardown);
  EXPECT_GT(hp->phase_wall_ns(HostPhase::kSetup), 0);
  EXPECT_GT(hp->phase_wall_ns(HostPhase::kSteady), 0);
  EXPECT_GT(hp->phase_wall_ns(HostPhase::kTeardown), 0);
  EXPECT_GT(hp->subsystem_total_ns(), 0);
  std::ostringstream os;
  EXPECT_TRUE(sim.write_host_profile(os));
  EXPECT_NE(os.str().find("\"schema\": \"mron.host_profile/1\""),
            std::string::npos);
}

// The quarantine contract: attaching the profiler must not change a single
// byte of the deterministic run report.
std::string report_with_profiling(bool host_profile,
                                  const std::string& fault_spec) {
  mapreduce::SimulationOptions opt;
  opt.seed = 7;
  opt.observe = true;
  opt.host_profile = host_profile;
  if (!fault_spec.empty()) {
    opt.fault_plan = faults::FaultPlan::parse(fault_spec);
  }
  mapreduce::Simulation sim(opt);
  auto spec = workloads::make_terasort(sim, gibibytes(1));
  const mapreduce::JobConfig config = spec.config;
  const auto result = sim.run_job(std::move(spec));
  return mapreduce::run_report_json(sim, {{&result, &config}},
                                    {{"app", "terasort"}});
}

TEST(HostProfiler, RunReportBytesUnchangedByProfiling) {
  EXPECT_EQ(report_with_profiling(false, ""), report_with_profiling(true, ""));
}

TEST(HostProfiler, RunReportBytesUnchangedByProfilingUnderFaults) {
  const std::string plan = "taskfail prob=0.05\nseed 7";
  EXPECT_EQ(report_with_profiling(false, plan),
            report_with_profiling(true, plan));
}

// The --progress heartbeat, below its throttle threshold: a zero interval
// prints on every tick, a long one stays silent. (Real callers use the
// 1-second default, which only fires on minute-scale runs.)
TEST(ProgressMeter, PrintsWhenIntervalElapsed) {
  testing::internal::CaptureStderr();
  ProgressMeter meter("unit", 0.0);
  meter.tick(1'000'000, 12.5);
  meter.tick(2'000'000, 25.0);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[unit]"), std::string::npos);
  EXPECT_NE(err.find("ev/s"), std::string::npos);
  EXPECT_NE(err.find("sim t="), std::string::npos);
}

TEST(ProgressMeter, SilentWithinInterval) {
  testing::internal::CaptureStderr();
  ProgressMeter meter("quiet", 3600.0);
  meter.tick(1'000'000, 12.5);
  meter.tick(2'000'000, 25.0);
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

}  // namespace
}  // namespace mron::obs
