#include "obs/audit.h"

#include "obs/json.h"

namespace mron::obs {

std::vector<const AuditEvent*> AuditLog::for_job(std::int64_t job) const {
  std::vector<const AuditEvent*> out;
  for (const AuditEvent& ev : events_) {
    if (ev.job == job) out.push_back(&ev);
  }
  return out;
}

std::size_t AuditLog::count(std::int64_t job, const std::string& kind) const {
  std::size_t n = 0;
  for (const AuditEvent& ev : events_) {
    if (ev.kind == kind && (job == -1 || ev.job == job)) ++n;
  }
  return n;
}

namespace {

void write_pairs(JsonWriter& w, const char* key,
                 const std::vector<std::pair<std::string, double>>& pairs) {
  if (pairs.empty()) return;
  w.raw(",\"").raw(key).raw("\":{");
  bool first = true;
  for (const auto& [name, value] : pairs) {
    if (!first) w.raw(',');
    first = false;
    w.string(name).raw(':').number(value);
  }
  w.raw('}');
}

}  // namespace

void AuditLog::write_jsonl(std::ostream& os) const {
  JsonWriter w(os);
  for (const AuditEvent& ev : events_) {
    w.raw("{\"t\":").number(ev.time).raw(",\"kind\":").string(ev.kind);
    if (ev.job >= 0) w.raw(",\"job\":").integer(ev.job);
    if (!ev.detail.empty()) w.raw(",\"detail\":").string(ev.detail);
    write_pairs(w, "before", ev.before);
    write_pairs(w, "after", ev.after);
    write_pairs(w, "sample", ev.sample);
    w.raw("}\n");
  }
  w.flush();
}

}  // namespace mron::obs
