// Seeded fuzzing of the `--fault-spec` (FaultPlan) and `--cluster`
// (ClusterSpec) grammars: a random valid value renders to text that parses
// back to the same text, and every single-byte mutation of that text either
// parses or throws InputError. Under -fsanitize=float-cast-overflow the
// mutations also catch a parser that casts an out-of-range number.
#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "common/rng.h"
#include "faults/fault_plan.h"

namespace mron {
namespace {

faults::FaultPlan random_plan(Rng& rng) {
  faults::FaultPlan p;
  p.seed = rng();
  p.heartbeat_period = rng.uniform(0.01, 5.0);
  p.heartbeat_timeout = rng.uniform(0.1, 60.0);
  if (rng.uniform01() < 0.7) p.task_fail_prob = rng.uniform01();
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    faults::CrashEvent c{static_cast<int>(rng.uniform_int(0, 10239)),
                         rng.uniform(0.0, 5000.0)};
    if (rng.uniform01() < 0.5) c.restart_at = c.at + rng.uniform(0.01, 900);
    p.crashes.push_back(c);
  }
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    faults::DegradeWindow d{static_cast<int>(rng.uniform_int(0, 10239)),
                            rng.uniform(0.0, 5000.0)};
    d.until = d.from + rng.uniform(0.01, 900.0);
    for (double* f : {&d.disk_factor, &d.nic_factor, &d.cpu_factor}) {
      if (rng.uniform01() < 0.6) *f = rng.uniform(0.01, 4.0);
    }
    p.degradations.push_back(d);
  }
  return p;
}

cluster::ClusterSpec random_cluster(Rng& rng) {
  cluster::ClusterSpec spec;
  spec.groups.clear();
  spec.inter_rack_factor = rng.uniform(0.01, 1.0);
  for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
    cluster::NodeGroup g;
    g.name = "g" + std::to_string(rng.uniform_int(0, 999));
    g.racks = static_cast<int>(rng.uniform_int(1, 16));
    g.nodes_per_rack = static_cast<int>(rng.uniform_int(1, 64));
    cluster::NodeHardware& hw = g.hardware;
    hw.physical_cores = static_cast<int>(rng.uniform_int(2, 64));
    hw.total_vcores = static_cast<int>(rng.uniform_int(1, 256));
    hw.container_vcores = static_cast<int>(rng.uniform_int(1, hw.total_vcores));
    hw.node_memory = gibibytes(rng.uniform(1.0, 512.0));
    hw.container_memory = hw.node_memory * rng.uniform(0.05, 1.0);
    hw.cpu_quota_per_vcore = rng.uniform(0.05, 4.0);
    hw.disk_bandwidth = mib_per_sec(rng.uniform(10.0, 4000.0));
    hw.disk_seek_penalty = rng.uniform(0.0, 0.5);
    hw.nic_bandwidth = gbit_per_sec(rng.uniform(0.1, 100.0));
    hw.daemon_core_reserve = 0.5 * rng.uniform01() * hw.physical_cores *
                             hw.container_vcores / hw.total_vcores;
    spec.groups.push_back(g);
  }
  return spec;
}

/// 200 random values: round trip, then 40 single-byte mutations each.
template <typename Render, typename Parse>
void fuzz(std::uint64_t seed, Render render_random, Parse parse) {
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const std::string text = render_random(rng);
    ASSERT_EQ(parse(text), text);
    for (int m = 0; m < 40; ++m) {
      std::string mutated = text;
      mutated[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(text.size()) - 1))] =
          static_cast<char>(rng.uniform_int(0, 255));
      try {
        (void)parse(mutated);
      } catch (const InputError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not an InputError: " << e.what() << "\n" << mutated;
      }
    }
  }
}

TEST(GrammarFuzz, FaultPlanRoundTripsAndMutationsAreUserErrors) {
  fuzz(
      0xfa17, [](Rng& rng) { return random_plan(rng).to_string(); },
      [](const std::string& text) {
        const faults::FaultPlan p = faults::FaultPlan::parse(text);
        p.validate(10240);
        return p.to_string();
      });
}

TEST(GrammarFuzz, ClusterSpecRoundTripsAndMutationsAreUserErrors) {
  fuzz(
      0xc1a5,
      [](Rng& rng) {
        return cluster::render_cluster_spec(random_cluster(rng));
      },
      [](const std::string& text) {
        return cluster::render_cluster_spec(cluster::parse_cluster_spec(text));
      });
}

}  // namespace
}  // namespace mron
