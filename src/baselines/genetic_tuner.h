// Gunther-style offline tuner (Liao et al., Euro-Par'13; Section 9 of the
// MRONLINE paper): a genetic search where EVERY fitness evaluation is a
// full job execution — the paper reports 20-40 test runs to converge, the
// cost MRONLINE's single expedited test run is designed to avoid.
#pragma once

#include <functional>

#include "common/rng.h"
#include "mapreduce/params.h"

namespace mron::baselines {

struct GeneticOptions {
  int population = 8;
  double mutation_rate = 0.25;
  double mutation_sigma = 0.15;
  int tournament = 2;
  std::uint64_t seed = 7;
  /// Worker threads for the initial-population fitness wave (each fitness
  /// evaluation is a whole job run, all mutually independent). The
  /// steady-state loop stays sequential — each child depends on the last
  /// replacement — so results are identical at any `jobs`, but the seeding
  /// wave is the embarrassingly parallel chunk of the budget. The evaluator
  /// must be thread-safe when jobs > 1 (one fresh Simulation per call is).
  int jobs = 1;
};

class GeneticOfflineTuner {
 public:
  /// Fitness: one full job run with `config`; returns execution seconds.
  using Evaluator = std::function<double(const mapreduce::JobConfig&)>;

  explicit GeneticOfflineTuner(GeneticOptions options = {});

  /// Run the GA until `budget_runs` evaluations are spent (Gunther's 20-40
  /// range). Returns the best configuration found. Every evaluation counts
  /// against the budget, but `evaluate` runs once per distinct clamped
  /// config; repeats reuse that result.
  mapreduce::JobConfig tune(const Evaluator& evaluate, int budget_runs);

  [[nodiscard]] int runs_used() const { return runs_used_; }
  [[nodiscard]] double best_seconds() const { return best_seconds_; }

 private:
  GeneticOptions options_;
  Rng rng_;
  int runs_used_ = 0;
  double best_seconds_ = 0.0;
};

}  // namespace mron::baselines
