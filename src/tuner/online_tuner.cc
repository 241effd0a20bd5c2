#include "tuner/online_tuner.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "common/stats.h"
#include "obs/host_profile.h"

namespace mron::tuner {

using mapreduce::JobConfig;
using mapreduce::JobId;
using mapreduce::MrAppMaster;
using mapreduce::TaskKind;
using mapreduce::TaskRef;
using mapreduce::TaskReport;

void merge_map_side(JobConfig& dst, const JobConfig& src) {
  dst.map_memory_mb = src.map_memory_mb;
  dst.io_sort_mb = src.io_sort_mb;
  dst.sort_spill_percent = src.sort_spill_percent;
  dst.map_cpu_vcores = src.map_cpu_vcores;
  dst.io_sort_factor = src.io_sort_factor;
}

void merge_reduce_side(JobConfig& dst, const JobConfig& src) {
  dst.reduce_memory_mb = src.reduce_memory_mb;
  dst.shuffle_input_buffer_percent = src.shuffle_input_buffer_percent;
  dst.shuffle_merge_percent = src.shuffle_merge_percent;
  dst.shuffle_memory_limit_percent = src.shuffle_memory_limit_percent;
  dst.merge_inmem_threshold = src.merge_inmem_threshold;
  dst.reduce_input_buffer_percent = src.reduce_input_buffer_percent;
  dst.reduce_cpu_vcores = src.reduce_cpu_vcores;
  dst.shuffle_parallelcopies = src.shuffle_parallelcopies;
}

namespace {

/// Params whose value differs between `a` and `b`, as (name, value) pairs
/// from each side — the before/after payload of an audit event.
void diff_configs(const JobConfig& a, const JobConfig& b,
                  std::vector<std::pair<std::string, double>>& before,
                  std::vector<std::pair<std::string, double>>& after) {
  const auto& reg = mapreduce::ParamRegistry::extended();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const double va = reg.get(a, i);
    const double vb = reg.get(b, i);
    if (va != vb) {
      before.emplace_back(reg.at(i).name, va);
      after.emplace_back(reg.at(i).name, vb);
    }
  }
}

/// Attach the job's provisional critical-path blame to a decision event:
/// "cp.<category>" seconds for each non-zero bucket, extracted up to the
/// job's most recent causal node. Every recorded decision thereby says
/// what was dominating the run at the moment it was made.
void append_cp_context(obs::Recorder* rec, std::int64_t job,
                       obs::AuditEvent& ev) {
  if (rec == nullptr) return;
  const obs::CriticalPathBuilder& cp = rec->critical_path();
  const std::vector<double> per = obs::CriticalPathBuilder::blame_breakdown(
      cp.extract(cp.latest_node(job)));
  for (int b = 0; b < obs::kNumBlames; ++b) {
    if (per[static_cast<std::size_t>(b)] > 0.0) {
      ev.sample.emplace_back(
          std::string("cp.") + obs::blame_name(static_cast<obs::Blame>(b)),
          per[static_cast<std::size_t>(b)]);
    }
  }
}

}  // namespace

OnlineTuner::OnlineTuner(TunerOptions options)
    : options_(options), rng_(options.seed) {}

void OnlineTuner::audit(JobState& js, obs::AuditEvent ev) {
  if (js.rec == nullptr) return;
  ev.time = js.am->engine().now();
  ev.job = js.am->id().value();
  js.rec->audit().record(std::move(ev));
}

void OnlineTuner::attach(MrAppMaster& am) {
  configurator_.register_job(&am);
  JobState& js = jobs_[am.id()];
  js.am = &am;
  js.rec = am.engine().recorder();
  js.outcome.decisions = js.rec != nullptr ? &js.rec->audit() : nullptr;
  {
    obs::AuditEvent ev;
    ev.kind = "attach";
    ev.detail = options_.strategy == TuningStrategy::Conservative
                    ? "conservative"
                    : "aggressive";
    audit(js, std::move(ev));
  }

  am.set_task_listener(
      [this, id = am.id()](const TaskReport& report) {
        on_task(jobs_.at(id), report);
      });

  if (options_.strategy == TuningStrategy::Conservative) {
    js.conservative.emplace(am.job_config());
    js.outcome.best_config = am.job_config();
    return;
  }

  // Aggressive: hold every launch, then release wave by wave. Wave sizes
  // shrink for small jobs so the search can still complete several
  // iterations before the tasks run out (the Figure-13 effect: a job needs
  // enough tasks to explore with).
  am.set_launch_budget(0);
  js.map_space.emplace(SearchSpace::map_side(am.job_config()));
  js.reduce_space.emplace(SearchSpace::reduce_side(am.job_config()));
  // Floors of 12/8: below that, LHS coverage of the 5-8 dimensional spaces
  // is too sparse to trust — small jobs simply run out of tasks first (the
  // paper's Figure-13 observation).
  auto scaled = [](ClimberOptions opt, int tasks) {
    opt.global_samples =
        std::max(std::min(opt.global_samples, 12),
                 std::min(opt.global_samples, tasks / 6));
    opt.local_samples = std::max(std::min(opt.local_samples, 8),
                                 std::min(opt.local_samples, tasks / 8));
    return opt;
  };
  js.map_climber.emplace(&*js.map_space,
                         scaled(options_.climber, am.num_maps()),
                         rng_.fork(1));
  js.reduce_climber.emplace(&*js.reduce_space,
                            scaled(options_.climber, am.num_reduces()),
                            rng_.fork(2));
  start_wave(js, /*is_map=*/true);
  start_wave(js, /*is_map=*/false);
}

void OnlineTuner::start_wave(JobState& js, bool is_map) {
  HOST_PROF_SCOPE("tuner.start_wave");
  GrayBoxHillClimber& climber =
      is_map ? *js.map_climber : *js.reduce_climber;
  auto& wave_slot = is_map ? js.map_wave : js.reduce_wave;
  const TaskKind kind = is_map ? TaskKind::Map : TaskKind::Reduce;

  if (climber.done()) {
    finalize(js, is_map);
    return;
  }
  std::vector<TaskRef> queued;
  for (const auto& t : js.am->queued_tasks()) {
    if (t.kind == kind) queued.push_back(t);
  }
  const std::vector<JobConfig> batch = climber.next_batch();
  if (batch.empty() || queued.size() < batch.size()) {
    // Out of tasks to sample on: stop searching, run the rest tuned.
    climber.finish();
    finalize(js, is_map);
    return;
  }

  Wave wave;
  wave.costs.assign(batch.size(), 0.0);
  wave.filled.assign(batch.size(), false);
  wave.faulted.assign(batch.size(), false);
  wave.remaining = batch.size();
  {
    obs::AuditEvent ev;
    ev.kind = "wave_start";
    ev.detail = is_map ? "map" : "reduce";
    ev.sample.emplace_back("batch", static_cast<double>(batch.size()));
    audit(js, std::move(ev));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool ok =
        configurator_.set_task_config(js.am->id(), queued[i], batch[i]);
    MRON_CHECK_MSG(ok, "failed to assign wave config to queued task");
    wave.slots[queued[i]] = i;
    // One event per configuration handed to a task — the audit-log count of
    // these equals JobOutcome::configs_tried once the waves complete.
    obs::AuditEvent ev;
    ev.kind = "config_assign";
    ev.detail = (is_map ? "map " : "reduce ") + std::to_string(queued[i].index);
    diff_configs(js.am->job_config(), batch[i], ev.before, ev.after);
    audit(js, std::move(ev));
  }
  if (js.rec != nullptr) {
    wave.span = js.rec->trace().begin(
        is_map ? "map_wave" : "reduce_wave", "tuner", obs::kTunerTracePid,
        js.am->id().value() * 2 + (is_map ? 0 : 1), js.am->engine().now(),
        "batch", static_cast<double>(batch.size()));
  }
  wave_slot = std::move(wave);
  js.am->set_launch_budget(kind, static_cast<int>(batch.size()));
  ++js.outcome.waves;
}

void OnlineTuner::on_task(JobState& js, const TaskReport& report) {
  HOST_PROF_SCOPE("tuner.on_task");
  const bool is_map = report.task.kind == TaskKind::Map;
  // Injected-fault kills carry no cost signal at all — the attempt died at
  // an arbitrary point and its retry reports later. Drop them outright.
  if (report.failed_injected) return;
  // Samples off faulted hardware measure the fault, not the config; keep
  // them out of the normalization ceiling and the conservative rules.
  const bool poisoned = options_.discard_faulted && report.faulted;
  if (!report.failed_oom && !poisoned) {
    double& max_secs = is_map ? js.max_map_secs : js.max_reduce_secs;
    max_secs = std::max(max_secs, report.duration());
  }

  if (js.conservative.has_value()) {
    if (poisoned) {
      obs::AuditEvent ev;
      ev.kind = "sample_discarded";
      ev.detail = (is_map ? "map " : "reduce ") +
                  std::to_string(report.task.index) + " faulted";
      audit(js, std::move(ev));
      if (js.am->finished()) maybe_store_outcome(js);
      return;
    }
    js.conservative->observe(report);
    if (js.conservative->ready()) {
      const JobConfig old = js.conservative->current();
      const JobConfig cfg = js.conservative->adjust();
      for (const std::string& rule : js.conservative->last_actions()) {
        obs::AuditEvent ev;
        ev.kind = "rule_fire";
        ev.detail = rule;
        ev.sample.emplace_back("mem_util", report.mem_util);
        ev.sample.emplace_back("cpu_util", report.cpu_util);
        ev.sample.emplace_back("duration", report.duration());
        audit(js, std::move(ev));
      }
      {
        obs::AuditEvent ev;
        ev.kind = "conservative_adjust";
        diff_configs(old, cfg, ev.before, ev.after);
        append_cp_context(js.rec, js.am->id().value(), ev);
        audit(js, std::move(ev));
      }
      configurator_.set_job_config(js.am->id(), cfg);
      configurator_.push_live_params(js.am->id(), cfg);
      js.outcome.best_config = cfg;
      js.outcome.conservative_adjustments = js.conservative->adjustments();
      if (js.rec != nullptr) {
        js.rec->series()
            .series("tuner.job" + std::to_string(js.am->id().value()) +
                    ".conservative_adjustments")
            .push(js.am->engine().now(),
                  static_cast<double>(js.outcome.conservative_adjustments));
      }
    }
    if (js.am->finished()) maybe_store_outcome(js);
    return;
  }

  auto& wave_slot = is_map ? js.map_wave : js.reduce_wave;
  if (wave_slot.has_value()) {
    on_wave_task(js, *wave_slot, report, is_map);
  }
}

void OnlineTuner::on_wave_task(JobState& js, Wave& wave,
                               const TaskReport& report, bool is_map) {
  auto it = wave.slots.find(report.task);
  if (it == wave.slots.end()) return;
  const std::size_t slot = it->second;
  if (wave.filled[slot]) return;  // e.g. a retry of an OOM-killed attempt
  wave.filled[slot] = true;
  wave.faulted[slot] = options_.discard_faulted && report.faulted;
  if (wave.faulted[slot]) {
    obs::AuditEvent ev;
    ev.kind = "sample_discarded";
    ev.detail = (is_map ? "map " : "reduce ") +
                std::to_string(report.task.index) + " faulted";
    audit(js, std::move(ev));
  }
  wave.costs[slot] =
      task_cost(report, is_map ? js.max_map_secs : js.max_reduce_secs);
  wave.reports.push_back(report);
  if (--wave.remaining > 0) return;

  // Wave complete: gray-box rules first, then advance the climber.
  if (js.rec != nullptr) js.rec->trace().end(wave.span, js.am->engine().now());
  {
    obs::AuditEvent ev;
    ev.kind = "wave_complete";
    ev.detail = is_map ? "map" : "reduce";
    const auto [min_it, max_it] =
        std::minmax_element(wave.costs.begin(), wave.costs.end());
    ev.sample.emplace_back("min_cost", *min_it);
    ev.sample.emplace_back("max_cost", *max_it);
    append_cp_context(js.rec, js.am->id().value(), ev);
    audit(js, std::move(ev));
  }
  GrayBoxHillClimber& climber =
      is_map ? *js.map_climber : *js.reduce_climber;
  // Median-of-slots aggregate: a slot whose sample ran on faulted hardware
  // reports the wave's clean median instead of its own (hardware-noise)
  // cost, so the climber neither rewards nor punishes that configuration.
  // With every slot faulted there is nothing to anchor on — keep raw costs.
  std::vector<TaskReport> clean_reports;
  for (const auto& r : wave.reports) {
    if (!(options_.discard_faulted && r.faulted)) clean_reports.push_back(r);
  }
  {
    std::vector<double> clean_costs;
    for (std::size_t i = 0; i < wave.costs.size(); ++i) {
      if (!wave.faulted[i]) clean_costs.push_back(wave.costs[i]);
    }
    if (!clean_costs.empty() && clean_costs.size() < wave.costs.size()) {
      const double median = percentile(clean_costs, 0.5);
      for (std::size_t i = 0; i < wave.costs.size(); ++i) {
        if (wave.faulted[i]) wave.costs[i] = median;
      }
    }
  }
  if (options_.use_tuning_rules) {
    const WaveStats stats = WaveStats::from_reports(
        clean_reports.empty() ? wave.reports : clean_reports);
    SearchSpace& space = is_map ? *js.map_space : *js.reduce_space;
    std::vector<std::pair<double, double>> old_bounds;
    for (std::size_t d = 0; d < space.dims(); ++d) {
      old_bounds.emplace_back(space.lower(d), space.upper(d));
    }
    if (is_map) {
      apply_map_rules(stats, space);
    } else {
      apply_reduce_rules(stats, space);
    }
    for (std::size_t d = 0; d < space.dims(); ++d) {
      if (space.lower(d) == old_bounds[d].first &&
          space.upper(d) == old_bounds[d].second) {
        continue;
      }
      obs::AuditEvent ev;
      ev.kind = "bound_tighten";
      ev.detail = space.param(d).name;
      ev.before.emplace_back("lower", old_bounds[d].first);
      ev.before.emplace_back("upper", old_bounds[d].second);
      ev.after.emplace_back("lower", space.lower(d));
      ev.after.emplace_back("upper", space.upper(d));
      audit(js, std::move(ev));
    }
  }
  const std::vector<double> costs = wave.costs;
  (is_map ? js.map_wave : js.reduce_wave).reset();
  climber.report_costs(costs);
  js.outcome.configs_tried += static_cast<int>(costs.size());
  {
    obs::AuditEvent ev;
    ev.kind = "climber_step";
    ev.detail = is_map ? "map" : "reduce";
    if (climber.has_best()) {
      ev.sample.emplace_back("best_cost", climber.best_cost());
      ev.sample.emplace_back("neighborhood", climber.neighborhood_size());
    }
    append_cp_context(js.rec, js.am->id().value(), ev);
    audit(js, std::move(ev));
  }
  // Convergence timelines (the Figure-9 curves): one point per climber
  // iteration — best predicted cost, configs tried so far, and the
  // incumbent parameter vector. Climber steps are rare (one per wave), so
  // name lookups here are off the hot path.
  if (js.rec != nullptr) {
    auto& store = js.rec->series();
    const std::string prefix =
        "tuner.job" + std::to_string(js.am->id().value()) + ".";
    const std::string side = is_map ? "map." : "reduce.";
    const SimTime now = js.am->engine().now();
    store.series(prefix + "configs_tried")
        .push(now, static_cast<double>(js.outcome.configs_tried));
    if (climber.has_best()) {
      store.series(prefix + side + "best_cost").push(now, climber.best_cost());
      const SearchSpace& space = is_map ? *js.map_space : *js.reduce_space;
      const JobConfig best = climber.best_config();
      for (std::size_t d = 0; d < space.dims(); ++d) {
        const mapreduce::ParamDescriptor& p = space.param(d);
        store.series(prefix + side + "param." + p.name).push(now, best.*p.field);
      }
    }
  }
  start_wave(js, is_map);
}

void OnlineTuner::finalize(JobState& js, bool is_map) {
  HOST_PROF_SCOPE("tuner.finalize");
  bool& flag = is_map ? js.map_finalized : js.reduce_finalized;
  if (flag) return;
  flag = true;

  GrayBoxHillClimber& climber =
      is_map ? *js.map_climber : *js.reduce_climber;
  JobConfig merged = js.am->job_config();
  obs::AuditEvent fin;
  fin.kind = "finalize";
  fin.detail = is_map ? "map" : "reduce";
  if (climber.has_best()) {
    const JobConfig best = climber.best_config();
    if (is_map) {
      merge_map_side(merged, best);
      js.outcome.map_best_cost = climber.best_cost();
      js.outcome.map_converged = climber.done();
    } else {
      merge_reduce_side(merged, best);
      js.outcome.reduce_best_cost = climber.best_cost();
      js.outcome.reduce_converged = climber.done();
    }
    diff_configs(js.am->job_config(), merged, fin.before, fin.after);
    fin.sample.emplace_back("best_cost", climber.best_cost());
    configurator_.set_job_config(js.am->id(), merged);
  }
  audit(js, std::move(fin));
  js.am->set_launch_budget(is_map ? TaskKind::Map : TaskKind::Reduce, -1);
  maybe_store_outcome(js);
}

void OnlineTuner::maybe_store_outcome(JobState& js) {
  if (js.conservative.has_value()) {
    if (js.am->finished()) {
      kb_.store(js.am->spec().name, js.outcome.best_config, 0.0);
    }
    return;
  }
  if (!js.map_finalized || !js.reduce_finalized) return;
  js.outcome.best_config = js.am->job_config();
  kb_.store(js.am->spec().name, js.outcome.best_config,
            js.outcome.map_best_cost + js.outcome.reduce_best_cost);
}

const OnlineTuner::JobOutcome& OnlineTuner::outcome(JobId id) const {
  auto it = jobs_.find(id);
  MRON_CHECK_MSG(it != jobs_.end(), "unknown job " << id);
  return it->second.outcome;
}

}  // namespace mron::tuner
