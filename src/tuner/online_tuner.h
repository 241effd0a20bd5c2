// MRONLINE's online tuner daemon (Figure 2): monitor + performance advisor
// (the gray-box hill climber and Section-6 rules) + dynamic configurator.
//
// Aggressive strategy (expedited test runs, Section 2.3 use case 1): task
// launches are gated into waves; each wave's tasks run one LHS-sampled
// configuration each; completed-wave statistics tighten the search bounds
// (gray box) and advance the hill climber. Map-side dimensions are driven by
// map-task costs, reduce-side dimensions by reduce-task costs. When a
// climber converges (or the job runs out of tasks to sample on), the
// remaining tasks run the best configuration found, and the merged result
// is stored in the tuning knowledge base.
//
// Conservative strategy (fast single run, use case 2): no launch gating at
// all; the job starts on its default configuration and the Section-6
// conservative rules adjust the job config between batches of completed
// tasks, with category-III parameters pushed into already-running tasks.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mapreduce/mr_app_master.h"
#include "obs/recorder.h"
#include "tuner/cost.h"
#include "tuner/dynamic_configurator.h"
#include "tuner/hill_climber.h"
#include "tuner/knowledge_base.h"
#include "tuner/rules.h"
#include "tuner/search_space.h"

namespace mron::tuner {

enum class TuningStrategy { Aggressive, Conservative };

struct TunerOptions {
  TuningStrategy strategy = TuningStrategy::Aggressive;
  ClimberOptions climber;
  std::uint64_t seed = 99;
  /// Apply the gray-box Section-6 rules between waves (ablation knob).
  bool use_tuning_rules = true;
  /// Failure awareness (fault injection): attempts killed by an injected
  /// fault are always dropped (their retry reports instead); when this is
  /// set, samples that completed on faulted hardware (TaskReport::faulted)
  /// are additionally excluded from the rules/normalization inputs and
  /// their wave cost is replaced by the median of the wave's clean slots —
  /// the median-of-slots aggregate — so one straggler cannot steer the
  /// climber toward whatever config it happened to run.
  bool discard_faulted = true;
};

class OnlineTuner {
 public:
  explicit OnlineTuner(TunerOptions options = {});

  /// Begin tuning a submitted job. Must be called before the simulation
  /// runs (the aggressive strategy gates the very first wave).
  void attach(mapreduce::MrAppMaster& am);

  struct JobOutcome {
    mapreduce::JobConfig best_config;
    double map_best_cost = 0.0;
    double reduce_best_cost = 0.0;
    int waves = 0;
    int configs_tried = 0;
    bool map_converged = false;
    bool reduce_converged = false;
    int conservative_adjustments = 0;
    /// The flight recorder's decision audit log, when the job ran with
    /// observation on (nullptr otherwise). Shared across jobs on one
    /// engine — filter with AuditLog::for_job(id).
    const obs::AuditLog* decisions = nullptr;
  };
  [[nodiscard]] const JobOutcome& outcome(mapreduce::JobId id) const;

  [[nodiscard]] TuningKnowledgeBase& knowledge_base() { return kb_; }
  [[nodiscard]] DynamicConfigurator& configurator() { return configurator_; }

 private:
  struct Wave {
    std::map<mapreduce::TaskRef, std::size_t> slots;
    std::vector<double> costs;
    std::vector<bool> filled;
    std::vector<bool> faulted;  ///< slot sample poisoned by a fault
    std::vector<mapreduce::TaskReport> reports;
    std::size_t remaining = 0;
    obs::SpanId span = obs::kInvalidSpan;  ///< open wave trace span
  };
  struct JobState {
    mapreduce::MrAppMaster* am = nullptr;
    obs::Recorder* rec = nullptr;  ///< the job engine's flight recorder
    // Aggressive machinery.
    std::optional<SearchSpace> map_space, reduce_space;
    std::optional<GrayBoxHillClimber> map_climber, reduce_climber;
    std::optional<Wave> map_wave, reduce_wave;
    bool map_finalized = false, reduce_finalized = false;
    double max_map_secs = 0.0, max_reduce_secs = 0.0;
    // Conservative machinery.
    std::optional<ConservativeTuner> conservative;
    JobOutcome outcome;
  };

  void on_task(JobState& js, const mapreduce::TaskReport& report);
  void on_wave_task(JobState& js, Wave& wave,
                    const mapreduce::TaskReport& report, bool is_map);
  void start_wave(JobState& js, bool is_map);
  void finalize(JobState& js, bool is_map);
  void maybe_store_outcome(JobState& js);
  /// Record a decision in the job's audit log (no-op without a recorder);
  /// stamps the sim-time and job id.
  void audit(JobState& js, obs::AuditEvent ev);

  TunerOptions options_;
  Rng rng_;
  DynamicConfigurator configurator_;
  TuningKnowledgeBase kb_;
  std::map<mapreduce::JobId, JobState> jobs_;
};

/// Copy the map-side tunables of `src` onto `dst`.
void merge_map_side(mapreduce::JobConfig& dst, const mapreduce::JobConfig& src);
/// Copy the reduce-side tunables of `src` onto `dst`.
void merge_reduce_side(mapreduce::JobConfig& dst,
                       const mapreduce::JobConfig& src);

}  // namespace mron::tuner
