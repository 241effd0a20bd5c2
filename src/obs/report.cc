#include "obs/report.h"

#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/recorder.h"

namespace mron::obs {

namespace {

void write_number_map(JsonWriter& w,
                      const std::map<std::string, double>& m) {
  w.raw('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) w.raw(',');
    first = false;
    w.string(k).raw(':').number(v);
  }
  w.raw('}');
}

}  // namespace

void RunReport::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void RunReport::add_job(ReportJob job) { jobs_.push_back(std::move(job)); }

void RunReport::set_faults(std::map<std::string, double> faults) {
  faults_ = std::move(faults);
}

void RunReport::set_dfs(std::map<std::string, double> dfs) {
  dfs_ = std::move(dfs);
}

std::map<std::string, double> RunReport::run_totals() const {
  std::map<std::string, double> totals;
  totals["jobs"] = static_cast<double>(jobs_.size());
  double first_submit = 0.0, last_finish = 0.0;
  bool any = false;
  for (const ReportJob& j : jobs_) {
    if (!any || j.submit_time < first_submit) first_submit = j.submit_time;
    if (!any || j.finish_time > last_finish) last_finish = j.finish_time;
    any = true;
    for (const auto& [phase, counters] : j.phases) {
      for (const auto& [name, value] : counters) {
        totals[phase + "." + name] += value;
      }
    }
    for (const char* summed :
         {"failed_attempts", "spilled_records", "speculative_launches",
          "speculative_wins", "injected_failures", "fetch_failures",
          "lost_maps_reexecuted"}) {
      const auto it = j.stats.find(summed);
      if (it != j.stats.end()) totals[summed] += it->second;
    }
  }
  totals["exec_secs"] = any ? last_finish - first_submit : 0.0;
  return totals;
}

std::string RunReport::to_json(const Recorder* rec) const {
  std::string out;
  JsonWriter w(out);
  write_json(w, rec);
  // Callers may hold the report a while; growth by doubling can leave
  // nearly as much slack again as the report is long.
  out.shrink_to_fit();
  return out;
}

void RunReport::write_json(JsonWriter& w, const Recorder* rec) const {
  w.raw("{\"schema\":").string(kRunReportSchema).raw(",\"meta\":{");
  bool first = true;
  for (const auto& [k, v] : meta_) {
    if (!first) w.raw(',');
    first = false;
    w.string(k).raw(':').string(v);
  }
  w.raw("},\"jobs\":[");
  first = true;
  for (const ReportJob& j : jobs_) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"id\":").integer(j.id).raw(",\"name\":").string(j.name);
    w.raw(",\"submit_time\":").number(j.submit_time);
    w.raw(",\"finish_time\":").number(j.finish_time);
    w.raw(",\"counters\":{");
    bool pfirst = true;
    for (const auto& [phase, counters] : j.phases) {
      if (!pfirst) w.raw(',');
      pfirst = false;
      w.string(phase).raw(':');
      write_number_map(w, counters);
    }
    w.raw("},\"stats\":");
    write_number_map(w, j.stats);
    w.raw(",\"config\":");
    write_number_map(w, j.config);
    w.raw('}');
  }
  w.raw("],\"totals\":");
  write_number_map(w, run_totals());
  w.raw(",\"faults\":");
  write_number_map(w, faults_);
  // Storage: placement counts and re-replication pipeline tallies.
  w.raw(",\"dfs\":");
  write_number_map(w, dfs_);

  // Causal critical path: per-job longest-path segments and run-level
  // blame totals (obs/critical_path.h). Empty jobs array without a
  // recorder or when nothing emitted edges.
  w.raw(",\"critical_path\":");
  if (rec != nullptr) {
    rec->critical_path().write_json(w);
  } else {
    CriticalPathBuilder{}.write_json(w);  // full taxonomy, all zeros
  }

  // Flight-recorder sections: scalars (histograms contribute interpolated
  // quantiles under <name>.p50/.p95/.p99 plus the overflow-clamp marker
  // pair <name>.overflow_count / <name>.p99_clamped), whole-run series,
  // audit volume.
  w.raw(",\"metrics\":");
  std::map<std::string, double> scalars;
  if (rec != nullptr) {
    const MetricsRegistry& m = rec->metrics();
    for (const std::string& name : m.names()) {
      scalars[name] = m.value(name);
      if (m.is_histogram(name)) {
        scalars[name + ".p50"] = m.quantile(name, 0.50);
        scalars[name + ".p95"] = m.quantile(name, 0.95);
        scalars[name + ".p99"] = m.quantile(name, 0.99);
        scalars[name + ".overflow_count"] =
            static_cast<double>(m.overflow_count(name));
        scalars[name + ".p99_clamped"] =
            m.quantile_clamped(name, 0.99) ? 1.0 : 0.0;
      }
    }
  }
  write_number_map(w, scalars);
  w.raw(",\"series\":");
  if (rec != nullptr) {
    rec->series().write_json(w);
  } else {
    w.raw("{\"series\":[]}");
  }
  w.raw(",\"audit\":{\"events\":")
      .integer(rec != nullptr ? rec->audit().size() : std::size_t{0})
      .raw("}}\n");
}

ReportCollector::ReportCollector(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path_, ec);
  MRON_INPUT_CHECK(std::ofstream(path_, std::ios::app).good(),
                   "cannot write " << path_);
  if (!existed) std::filesystem::remove(path_, ec);
}

bool ReportCollector::offer(const std::string& key,
                            const std::function<void(std::ostream&)>& write) {
  std::lock_guard<std::mutex> lock(mu_);
  // Weak comparison: an equal key re-offers an identical run (identical
  // bytes by the determinism contract), so rewriting is a no-op in content
  // and keeps "the last write is the winner" trivially true.
  if (best_key_.has_value() && key < *best_key_) return false;
  best_key_ = key;
  std::ofstream out(path_);
  MRON_CHECK_MSG(out.good(), "cannot open " << path_);
  write(out);
  return true;
}

bool ReportCollector::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !best_key_.has_value();
}

}  // namespace mron::obs
