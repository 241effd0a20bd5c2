#include "obs/trace.h"

#include <cstring>

#include "common/check.h"
#include "obs/json.h"

namespace mron::obs {

SpanId TraceRecorder::begin(const char* name, const char* cat, int pid,
                            std::int64_t tid, SimTime t, const char* arg_key,
                            double arg_val) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'B';
  e.time = t;
  e.pid = pid;
  e.tid = tid;
  e.arg_key = arg_key;
  e.arg_val = arg_val;
  events_.push_back(e);
  ++open_;
  return static_cast<SpanId>(events_.size() - 1);
}

void TraceRecorder::end(SpanId span, SimTime t) {
  if (span == kInvalidSpan) return;
  MRON_CHECK(span >= 0 && static_cast<std::size_t>(span) < events_.size());
  const Event& b = events_[static_cast<std::size_t>(span)];
  MRON_CHECK_MSG(b.ph == 'B', "TraceRecorder::end on a non-begin event");
  Event e;
  e.name = b.name;
  e.cat = b.cat;
  e.ph = 'E';
  e.time = t;
  e.pid = b.pid;
  e.tid = b.tid;
  events_.push_back(e);
  MRON_CHECK(open_ > 0);
  --open_;
}

void TraceRecorder::async_begin(const char* name, const char* cat, int pid,
                                std::int64_t id, SimTime t,
                                const char* arg_key, double arg_val) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'b';
  e.time = t;
  e.pid = pid;
  e.tid = id;  // lane within the async track; id is what correlates
  e.id = id;
  e.arg_key = arg_key;
  e.arg_val = arg_val;
  events_.push_back(e);
}

void TraceRecorder::async_end(const char* name, const char* cat, int pid,
                              std::int64_t id, SimTime t, const char* arg_key,
                              double arg_val) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'e';
  e.time = t;
  e.pid = pid;
  e.tid = id;
  e.id = id;
  e.arg_key = arg_key;
  e.arg_val = arg_val;
  events_.push_back(e);
}

void TraceRecorder::flow_begin(const char* name, const char* cat, int pid,
                               std::int64_t tid, SimTime t, std::int64_t id) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 's';
  e.time = t;
  e.pid = pid;
  e.tid = tid;
  e.id = id;
  events_.push_back(e);
}

void TraceRecorder::flow_end(const char* name, const char* cat, int pid,
                             std::int64_t tid, SimTime t, std::int64_t id) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'f';
  e.time = t;
  e.pid = pid;
  e.tid = tid;
  e.id = id;
  events_.push_back(e);
}

void TraceRecorder::instant(const char* name, const char* cat, int pid,
                            std::int64_t tid, SimTime t) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.time = t;
  e.pid = pid;
  e.tid = tid;
  events_.push_back(e);
}

void TraceRecorder::set_process_name(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void TraceRecorder::set_thread_name(int pid, std::int64_t tid,
                                    std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

std::size_t TraceRecorder::span_count(const char* cat) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (e.ph != 'E') continue;
    if (cat == nullptr || (e.cat != nullptr && std::strcmp(e.cat, cat) == 0)) {
      ++n;
    }
  }
  return n;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  JsonWriter w(os);
  w.raw("{\"traceEvents\":[");
  bool first = true;
  const auto sep = [&] {
    if (!first) w.raw(',');
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":").integer(pid);
    w.raw(",\"tid\":0,\"args\":{\"name\":").string(name).raw("}}");
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
        .integer(key.first);
    w.raw(",\"tid\":").integer(key.second);
    w.raw(",\"args\":{\"name\":").string(name).raw("}}");
  }
  for (const Event& e : events_) {
    sep();
    w.raw("{\"name\":").string(e.name != nullptr ? e.name : "");
    w.raw(",\"cat\":").string(e.cat != nullptr ? e.cat : "");
    w.raw(",\"ph\":\"").raw(e.ph).raw("\",\"ts\":").number(e.time * 1e6);
    w.raw(",\"pid\":").integer(e.pid).raw(",\"tid\":").integer(e.tid);
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 's' || e.ph == 'f') {
      w.raw(",\"id\":").integer(e.id);
    }
    if (e.ph == 'f') w.raw(",\"bp\":\"e\"");
    if (e.ph == 'i') w.raw(",\"s\":\"t\"");
    if (e.arg_key != nullptr) {
      w.raw(",\"args\":{").string(e.arg_key).raw(':').number(e.arg_val);
      w.raw('}');
    }
    w.raw('}');
  }
  w.raw("],\"displayTimeUnit\":\"ms\"}\n");
  w.flush();
}

}  // namespace mron::obs
