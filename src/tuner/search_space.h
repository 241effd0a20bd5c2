// Normalized parameter search space over a subset of the Table-2 registry.
//
// The hill climber works in [0,1]^d; this class maps those points to
// concrete JobConfigs (and back), applies the inter-parameter constraints,
// and carries the *dynamic per-dimension bounds* that the gray-box tuning
// rules tighten as runtime statistics arrive (Section 6: "increase the
// lower bound to the 80th percentile of sampled values", etc.).
//
// MRONLINE searches two sub-spaces driven by different evidence streams:
// map-task costs shape the map-side dimensions, reduce-task costs the
// reduce-side ones (the paper assigns configurations to map and reduce
// tasks independently; splitting the space keeps each dimension's signal
// attached to the tasks that exercise it).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mapreduce/params.h"

namespace mron::tuner {

class SearchSpace {
 public:
  /// Build a space over the named parameters (all must exist in `registry`).
  SearchSpace(const mapreduce::ParamRegistry& registry,
              std::vector<std::string> param_names,
              mapreduce::JobConfig base);

  /// The paper's map-side dimensions.
  static SearchSpace map_side(mapreduce::JobConfig base);
  /// The paper's reduce-side dimensions.
  static SearchSpace reduce_side(mapreduce::JobConfig base);

  [[nodiscard]] std::size_t dims() const { return dims_.size(); }
  [[nodiscard]] const mapreduce::ParamDescriptor& param(std::size_t d) const;
  /// Index of a named dimension, or npos.
  [[nodiscard]] std::size_t dim_of(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Point -> config: un-normalizes each coordinate into [min,max] of its
  /// parameter, writes onto the base config, and applies constraints.
  [[nodiscard]] mapreduce::JobConfig to_config(
      const std::vector<double>& x) const;
  [[nodiscard]] std::vector<double> from_config(
      const mapreduce::JobConfig& cfg) const;

  // --- dynamic bounds (normalized, within [0,1]) -----------------------------
  void set_bounds(std::size_t dim, double lo, double hi);
  [[nodiscard]] double lower(std::size_t dim) const;
  [[nodiscard]] double upper(std::size_t dim) const;
  /// Clamp a point into the current bounds.
  void clamp(std::vector<double>& x) const;

  [[nodiscard]] const mapreduce::JobConfig& base() const { return base_; }

 private:
  const mapreduce::ParamRegistry* registry_;
  std::vector<std::size_t> dims_;  // indices into the registry
  std::vector<double> lo_, hi_;    // normalized dynamic bounds
  mapreduce::JobConfig base_;
};

}  // namespace mron::tuner
