// Gray-box smart hill climbing — Algorithm 1 of the paper.
//
// Batch-oriented: next_batch() yields the configurations to try in the next
// wave of tasks; report_costs() feeds their measured Eq.-1 costs back and
// advances the state machine:
//
//   global phase:  LHS-sample m points over the whole (bounded) space,
//                  take the cheapest as the current point C_cur, set the
//                  neighborhood around it;
//   local phase:   LHS-sample n points in the neighborhood; an improvement
//                  recenters and re-expands the neighborhood, otherwise it
//                  shrinks by factor f; below threshold N_t the local
//                  optimum is declared;
//   repeat:        another global round; improvement returns to the local
//                  phase, otherwise a strike is counted; g strikes end the
//                  search.
//
// The "gray box": tuning rules tighten the SearchSpace's per-dimension
// bounds between waves (via the space reference), so samples concentrate
// where the runtime statistics say good configurations live.
#pragma once

#include <vector>

#include "common/rng.h"
#include "mapreduce/params.h"
#include "tuner/lhs.h"
#include "tuner/search_space.h"

namespace mron::tuner {

struct ClimberOptions {
  int global_samples = 24;           ///< m
  int local_samples = 16;            ///< n
  double neighborhood_threshold = 0.1;  ///< N_t
  double shrink_factor = 0.75;       ///< f
  int max_global_rounds = 5;         ///< g
  int lhs_intervals = 24;            ///< k
  double initial_neighborhood = 0.3;
  /// Ablation: false replaces LHS with plain uniform sampling.
  bool use_lhs = true;
};

class GrayBoxHillClimber {
 public:
  GrayBoxHillClimber(SearchSpace* space, ClimberOptions options, Rng rng);

  /// Configurations for the next wave (empty once done()).
  [[nodiscard]] std::vector<mapreduce::JobConfig> next_batch();
  /// Costs parallel to the last next_batch(); advances the search.
  void report_costs(const std::vector<double>& costs);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] mapreduce::JobConfig best_config() const;
  [[nodiscard]] double best_cost() const { return best_cost_; }
  [[nodiscard]] bool has_best() const { return has_best_; }
  [[nodiscard]] int configs_tried() const { return configs_tried_; }
  [[nodiscard]] double neighborhood_size() const { return neighborhood_; }

  /// Force-terminate (e.g. the job is running out of tasks to sample on).
  void finish() { done_ = true; }

 private:
  enum class Phase { Global, Local };

  SearchSpace* space_;
  ClimberOptions options_;
  LhsSampler sampler_;
  Rng rng_;

  Phase phase_ = Phase::Global;
  std::vector<std::vector<double>> pending_points_;
  std::vector<double> current_;  ///< C_cur
  double current_cost_ = 0.0;
  std::vector<double> best_point_;
  double best_cost_ = 0.0;
  bool has_best_ = false;
  double neighborhood_ = 0.3;
  int global_strikes_ = 0;
  bool done_ = false;
  int configs_tried_ = 0;
};

}  // namespace mron::tuner
