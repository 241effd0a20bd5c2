#include "tuner/hill_climber.h"

#include <algorithm>

#include "common/check.h"

namespace mron::tuner {

GrayBoxHillClimber::GrayBoxHillClimber(SearchSpace* space,
                                       ClimberOptions options, Rng rng)
    : space_(space),
      options_(options),
      sampler_(options.lhs_intervals, rng.fork(0x1145), options.use_lhs),
      rng_(rng),
      neighborhood_(options.initial_neighborhood) {
  MRON_CHECK(space_ != nullptr);
  MRON_CHECK(options_.global_samples >= 1 && options_.local_samples >= 1);
  MRON_CHECK(options_.shrink_factor > 0.0 && options_.shrink_factor < 1.0);
}

std::vector<mapreduce::JobConfig> GrayBoxHillClimber::next_batch() {
  if (done_) return {};
  if (phase_ == Phase::Global) {
    pending_points_ = sampler_.sample(*space_, options_.global_samples);
  } else {
    pending_points_ = sampler_.sample_neighborhood(
        *space_, current_, neighborhood_, options_.local_samples);
  }
  std::vector<mapreduce::JobConfig> configs;
  configs.reserve(pending_points_.size());
  for (auto& p : pending_points_) {
    // Bounds may have been tightened by the rules since sampling state was
    // built; keep every issued point inside them.
    space_->clamp(p);
    configs.push_back(space_->to_config(p));
  }
  return configs;
}

void GrayBoxHillClimber::report_costs(const std::vector<double>& costs) {
  MRON_CHECK(!done_);
  MRON_CHECK_MSG(costs.size() == pending_points_.size(),
                 "got " << costs.size() << " costs for "
                        << pending_points_.size() << " sampled configs");
  configs_tried_ += static_cast<int>(costs.size());

  // Cheapest point of the wave.
  std::size_t argmin = 0;
  for (std::size_t i = 1; i < costs.size(); ++i) {
    if (costs[i] < costs[argmin]) argmin = i;
  }
  const std::vector<double> candidate = pending_points_[argmin];
  const double candidate_cost = costs[argmin];

  if (!has_best_ || candidate_cost < best_cost_) {
    best_point_ = candidate;
    best_cost_ = candidate_cost;
    has_best_ = true;
  }

  if (phase_ == Phase::Global) {
    if (current_.empty() || candidate_cost < current_cost_) {
      // Promising region found: descend into it.
      current_ = candidate;
      current_cost_ = candidate_cost;
      neighborhood_ = options_.initial_neighborhood;
      phase_ = Phase::Local;
    } else {
      // No improvement over the current optimum: count a strike.
      ++global_strikes_;
      if (global_strikes_ >= options_.max_global_rounds) done_ = true;
    }
    return;
  }

  // Local phase.
  if (candidate_cost < current_cost_) {
    current_ = candidate;
    current_cost_ = candidate_cost;
    neighborhood_ = options_.initial_neighborhood;  // adjust_neighbor
  } else {
    neighborhood_ *= options_.shrink_factor;  // shrink_neighbor
  }
  if (neighborhood_ < options_.neighborhood_threshold) {
    // Local optimum declared; back to global probing.
    phase_ = Phase::Global;
  }
}

mapreduce::JobConfig GrayBoxHillClimber::best_config() const {
  MRON_CHECK_MSG(has_best_, "no costs reported yet");
  return space_->to_config(best_point_);
}

}  // namespace mron::tuner
