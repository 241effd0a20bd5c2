// Deterministic fault plans: the declarative half of the fault-injection
// subsystem.
//
// A FaultPlan is a pure description — node crashes (with optional restarts),
// disk/NIC/CPU degradation windows (the straggler generator), per-attempt
// task failure probabilities, and the heartbeat parameters the RM uses to
// detect dead NodeManagers. Plans are reproducible by construction: the only
// randomness they admit is the seed, and the injector turns that seed into
// order-independent hash draws, so the same plan + seed yields the same
// faults at any --jobs level.
//
// Plans parse from a tiny text format (one directive per line or
// ';'-separated, '#' comments):
//
//   seed 42
//   heartbeat period=0.5 timeout=3
//   taskfail prob=0.02
//   crash node=4 at=120 restart=300
//   degrade node=7 from=60 until=180 disk=0.25 nic=0.5
//
// See FAULTS.md for the full grammar and semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace mron::faults {

/// Fail-stop a node at `at`; bring it back at `restart_at` (< 0: never).
struct CrashEvent {
  int node = -1;
  SimTime at = 0.0;
  SimTime restart_at = -1.0;
};

/// Scale a node's hardware capacities inside [from, until). A factor of
/// 0.25 means the resource runs at a quarter of its healthy bandwidth —
/// the classic hot-disk straggler.
struct DegradeWindow {
  int node = -1;
  SimTime from = 0.0;
  SimTime until = 0.0;
  double disk_factor = 1.0;
  double nic_factor = 1.0;
  double cpu_factor = 1.0;
};

struct FaultPlan {
  /// Seeds the per-attempt failure draws (independent of the simulation
  /// seed, so the same fault pattern can be replayed across workloads).
  std::uint64_t seed = 0;
  /// Probability that any given task attempt is killed partway through.
  double task_fail_prob = 0.0;
  /// NodeManager heartbeat cadence and the silence threshold after which
  /// the RM declares a node lost.
  SimTime heartbeat_period = 0.5;
  SimTime heartbeat_timeout = 3.0;
  std::vector<CrashEvent> crashes;
  std::vector<DegradeWindow> degradations;

  /// True when the plan injects nothing (no crashes, windows, or failures).
  [[nodiscard]] bool empty() const {
    return crashes.empty() && degradations.empty() && task_fail_prob <= 0.0;
  }

  /// Round-trips through parse(): parse(p.to_string()) == p.
  [[nodiscard]] std::string to_string() const;

  /// Throws InputError on malformed plans (node out of [0,num_nodes),
  /// empty or negative windows, probabilities outside [0,1], factors <= 0).
  void validate(int num_nodes) const;

  /// Parse the text format; throws InputError on unknown directives or
  /// malformed values.
  static FaultPlan parse(const std::string& text);
  /// Parse a plan file from disk; throws InputError if it cannot be read.
  static FaultPlan load(const std::string& path);
};

}  // namespace mron::faults
