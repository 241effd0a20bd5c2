// Scaling microbench: engine event throughput vs simulated cluster size.
//
// Runs one Terasort job on clusters of 19 / 64 / 256 / 1,024 / 4,096 /
// 10,240 nodes (the paper's testbed up through datacenter scale, racks of
// 64) and reports the engine events/second each size sustains. With the
// indexed scheduler, dirty-set monitor, and bulk DFS hot paths no event
// pays an O(n) scan, so the rate stays roughly flat as the cluster grows
// (the event heap's O(log n) is measured not to dominate even at 10,240
// nodes); the old O(n)-per-event scans make it sag. tools/check_perf.py
// --scaling-floor FRAC gates on exactly that: every entry of the emitted
// events_per_sec_vs_nodes table must be >= FRAC * the smallest-cluster
// entry.
//
//   scalebench [--out=BENCH_scale.json]
//              [--nodes=19,64,256,1024,4096,10240] [--size-gb=8] [--reps=5]
//              [--profile-out[=host_profile.json]] [--progress]
//
// The input size is fixed across cluster sizes, so larger clusters measure
// the pure per-node overhead (heartbeats, monitor sampling, allocation
// index maintenance) layered on the same job. Each point is the *median*
// of `reps` runs (at least 3): unlike best-of, the median rejects noise in
// both directions, so one lucky or unlucky rep cannot fake a dip — the
// committed 256-node point once sagged below its neighbors for exactly
// that reason — and the CI scaling-floor gate stays stable. The JSON is
// the BENCH schema that check_perf.py consumes; the table lands under
// metrics, keyed by total node count (slaves + master). Schema 3 also
// records setup_ms_vs_nodes — the untimed (by the rate gate) O(n)
// construction cost per point, the number the 100k-node roadmap item
// watches.
//
// --profile-out runs one extra job at the *largest* requested node count
// with the host self-profiler attached (obs/host_profile.h) and writes the
// `mron.host_profile/1` document: host-ns per subsystem, setup-vs-steady
// phase walls, RSS and arena bytes. --progress prints a stderr heartbeat
// during each run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/parse.h"
#include "common/units.h"
#include "mapreduce/simulation.h"
#include "obs/host_profile.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

using Clock = std::chrono::steady_clock;

struct Point {
  int nodes = 0;            ///< total simulated nodes (slaves + master)
  double events_per_sec = 0.0;
  double wall_ms = 0.0;     ///< wall for the median rep
  double setup_ms = 0.0;    ///< Simulation construction + dataset placement
  std::int64_t events = 0;  ///< engine events dispatched in one run
  double exec_secs = 0.0;   ///< simulated job time (sanity column)
};

bool g_progress = false;

/// One job on a fresh simulation. Only run_job feeds the rate: cluster and
/// DFS construction are one-time O(n) costs every cluster pays once, while
/// the gate is about the steady-state per-event rate the scheduler
/// sustains. Setup is still *measured* (reported as setup_ms) — it is the
/// other half of the 100k-node question. The event count is the dispatch
/// delta across run_job for the same reason.
Point run_once(const cluster::ClusterSpec& spec, double size_gb) {
  Point p;
  p.nodes = spec.total_slaves() + 1;
  mapreduce::SimulationOptions opt;
  opt.cluster = spec;
  opt.seed = 7;
  opt.progress = g_progress;
  opt.progress_label = "scalebench " + std::to_string(p.nodes) + "n";
  const auto t_setup = Clock::now();
  mapreduce::Simulation sim(opt);
  auto job = workloads::make_terasort(sim, gibibytes(size_gb));
  const std::chrono::duration<double, std::milli> setup_dt =
      Clock::now() - t_setup;
  const std::int64_t events_before = sim.engine().total_dispatched();
  const auto t0 = Clock::now();
  const mapreduce::JobResult result = sim.run_job(std::move(job));
  const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;

  p.wall_ms = dt.count();
  p.setup_ms = setup_dt.count();
  p.events = sim.engine().total_dispatched() - events_before;
  p.events_per_sec = static_cast<double>(p.events) / (p.wall_ms / 1e3);
  p.exec_secs = result.exec_time();
  return p;
}

/// Median events/sec over `reps` runs (upper median for even counts).
Point median_of(const cluster::ClusterSpec& spec, double size_gb, int reps) {
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) pts.push_back(run_once(spec, size_gb));
  std::sort(pts.begin(), pts.end(), [](const Point& a, const Point& b) {
    return a.events_per_sec < b.events_per_sec;
  });
  return pts[pts.size() / 2];
}

/// `n` total nodes: the 19-node default testbed, else n-1 testbed-class
/// slaves in racks of 64.
cluster::ClusterSpec spec_for(int n) {
  if (n == 19) return cluster::ClusterSpec{};
  return cluster::scaled_spec(n - 1);
}

std::vector<int> parse_nodes(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto n = parse_integer<int>(item);
    MRON_INPUT_CHECK(n.has_value() && *n >= 2,
                     "bad --nodes entry '" << item << "' (want >= 2)");
    out.push_back(*n);
  }
  MRON_INPUT_CHECK(out.size() >= 2,
                   "--nodes wants at least two comma-separated counts");
  std::sort(out.begin(), out.end());
  return out;
}

int write_json(const std::string& path, const std::vector<Point>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  char buf[128];
  out << "{\n";
  out << "  \"schema\": 3,\n";
#ifdef NDEBUG
  out << "  \"build\": \"release\",\n";
#else
  out << "  \"build\": \"debug\",\n";
#endif
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"metrics\": {\n";
  out << "    \"events_per_sec_vs_nodes\": {\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof buf, "      \"%d\": %.0f%s\n", points[i].nodes,
                  points[i].events_per_sec,
                  i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "    },\n";
  out << "    \"setup_ms_vs_nodes\": {\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof buf, "      \"%d\": %.3f%s\n", points[i].nodes,
                  points[i].setup_ms, i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "    },\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    \"scalebench_wall_ms_%dnodes\": %.3f%s\n",
                  points[i].nodes, points[i].wall_ms,
                  i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "  }\n";
  out << "}\n";
  return out.good() ? 0 : 1;
}

/// One extra run at `spec` with the host profiler attached; writes the
/// host-profile document to `path` and prints the per-phase / per-subsystem
/// breakdown. Returns nonzero on I/O failure only.
int run_profiled_point(const cluster::ClusterSpec& spec, double size_gb,
                       const std::string& path) {
  mapreduce::SimulationOptions opt;
  opt.cluster = spec;
  opt.seed = 7;
  opt.host_profile = true;
  opt.progress = g_progress;
  opt.progress_label =
      "scalebench-profile " + std::to_string(spec.total_slaves() + 1) + "n";
  mapreduce::Simulation sim(opt);
  auto job = workloads::make_terasort(sim, gibibytes(size_gb));
  sim.run_job(std::move(job));
  obs::HostProfiler& hp = *sim.host_profiler();
  hp.set_meta("source", "scalebench");
  char gb[32];
  std::snprintf(gb, sizeof gb, "%g", size_gb);
  hp.set_meta("size_gb", gb);
  std::ofstream out(path);
  if (!out || !sim.write_host_profile(out) || !out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  const double setup_ms =
      static_cast<double>(hp.phase_wall_ns(obs::HostPhase::kSetup)) / 1e6;
  const double steady_ms =
      static_cast<double>(hp.phase_wall_ns(obs::HostPhase::kSteady)) / 1e6;
  const double teardown_ms =
      static_cast<double>(hp.phase_wall_ns(obs::HostPhase::kTeardown)) / 1e6;
  std::printf("\nhost profile (%d nodes): setup %.1f ms, steady %.1f ms,"
              " teardown %.1f ms\n",
              spec.total_slaves() + 1, setup_ms, steady_ms, teardown_ms);
  std::printf("%16s %12s %12s %10s\n", "subsystem", "events", "total ms",
              "ns/event");
  const double npt = hp.ns_per_tick();
  for (int c = 0; c < obs::kNumHostCats; ++c) {
    const obs::HostStat& s = hp.subsystem(static_cast<obs::HostCat>(c));
    if (s.count == 0) continue;
    const double total_ns = static_cast<double>(s.total_ticks) * npt;
    std::printf("%16s %12lld %12.1f %10.0f\n",
                obs::host_cat_name(static_cast<obs::HostCat>(c)),
                static_cast<long long>(s.count), total_ns / 1e6,
                total_ns / static_cast<double>(s.count));
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get("help", false)) {
    std::printf("usage: scalebench [--out=BENCH_scale.json]"
                " [--nodes=19,64,256,1024,4096,10240] [--size-gb=N]"
                " [--reps=N] [--profile-out[=host_profile.json]]"
                " [--progress]   (reps is clamped to >= 3: the gate reads"
                " the median)\n");
    return 0;
  }
  const std::string out_path =
      flags.get("out", std::string("BENCH_scale.json"));
  const std::vector<int> nodes =
      parse_nodes(flags.get("nodes", std::string("19,64,256,1024,4096,10240")));
  const double size_gb = flags.get("size-gb", 32.0);
  // The scaling-floor gate reads these numbers; a median needs >= 3 reps
  // to reject a stray outlier at all.
  const int reps = std::max(3, flags.get("reps", 5));
  const std::string profile_out =
      flags.path("profile-out", "host_profile.json");
  g_progress = flags.get("progress", false);
  flags.reject_unused();

  std::printf("Terasort %.0f GB, median of %d runs per point\n\n", size_gb,
              reps);
  std::printf("%8s %14s %12s %12s %12s %10s\n", "nodes", "events/sec",
              "events", "wall ms", "setup ms", "sim secs");
  std::vector<Point> points;
  for (const int n : nodes) {
    const Point p = median_of(spec_for(n), size_gb, reps);
    std::printf("%8d %14.0f %12lld %12.1f %12.1f %10.1f\n", p.nodes,
                p.events_per_sec, static_cast<long long>(p.events),
                p.wall_ms, p.setup_ms, p.exec_secs);
    std::fflush(stdout);
    points.push_back(p);
  }
  const double anchor = points.front().events_per_sec;
  std::printf("\n%d-node rate is the anchor; worst ratio %.2fx\n",
              points.front().nodes,
              std::min_element(points.begin(), points.end(),
                               [](const Point& a, const Point& b) {
                                 return a.events_per_sec < b.events_per_sec;
                               })
                      ->events_per_sec /
                  anchor);
  const int rc = write_json(out_path, points);
  if (rc != 0) return rc;
  if (!profile_out.empty()) {
    return run_profiled_point(spec_for(nodes.back()), size_gb, profile_out);
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
