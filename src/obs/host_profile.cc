#include "obs/host_profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <string_view>

#include "obs/json.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace mron::obs {

namespace {

// Thread-local profiler context. The category byte (detail::g_tls_cat)
// lives in the header so CatScope inlines at the dispatch site.
thread_local HostProfiler* g_tls_profiler = nullptr;
thread_local HostProfiler::ThreadState* g_tls_state = nullptr;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* host_cat_name(HostCat c) {
  switch (c) {
    case HostCat::kEngine: return "engine";
    case HostCat::kSharedServer: return "shared_server";
    case HostCat::kMonitor: return "monitor";
    case HostCat::kDfs: return "dfs";
    case HostCat::kYarn: return "yarn";
    case HostCat::kAmTask: return "am_task";
    case HostCat::kTuner: return "tuner";
    case HostCat::kFaults: return "faults";
    case HostCat::kCount: break;
  }
  return "engine";
}

const char* host_phase_name(HostPhase p) {
  switch (p) {
    case HostPhase::kSetup: return "setup";
    case HostPhase::kSteady: return "steady";
    case HostPhase::kTeardown: return "teardown";
    case HostPhase::kCount: break;
  }
  return "setup";
}

HostProfiler::HostProfiler()
    : anchor_ticks_(raw_ticks()),
      anchor_steady_ns_(steady_now_ns()),
      phase_start_ticks_(anchor_ticks_) {}

HostProfiler::~HostProfiler() = default;

double HostProfiler::ns_per_tick() const {
  const std::int64_t dt = raw_ticks() - anchor_ticks_;
  const std::int64_t dn = steady_now_ns() - anchor_steady_ns_;
  if (dt <= 0 || dn <= 0) return 1.0;
  return static_cast<double>(dn) / static_cast<double>(dt);
}

void HostProfiler::begin_phase(HostPhase p) {
  if (p == phase_ || p == HostPhase::kCount) return;
  const std::int64_t now = raw_ticks();
  const int cur = static_cast<int>(phase_);
  phase_ticks_[cur] += now - phase_start_ticks_;
  phase_rss_bytes_[cur] = current_rss_bytes();
  phase_ = p;
  phase_start_ticks_ = now;
}

std::int64_t HostProfiler::phase_wall_ns(HostPhase p) const {
  if (p == HostPhase::kCount) return 0;
  std::int64_t ticks = phase_ticks_[static_cast<int>(p)];
  if (p == phase_) ticks += raw_ticks() - phase_start_ticks_;
  return static_cast<std::int64_t>(static_cast<double>(ticks) *
                                   ns_per_tick());
}

std::int64_t HostProfiler::subsystem_total_ns() const {
  std::int64_t total = 0;
  for (const HostStat& s : cats_) total += s.total_ticks;
  return static_cast<std::int64_t>(static_cast<double>(total) *
                                   ns_per_tick());
}

void HostProfiler::set_memory(const std::string& key, double bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  memory_[key] = bytes;
}

void HostProfiler::set_meta(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_[key] = value;
}

std::int64_t HostProfiler::current_rss_bytes() {
#if defined(__linux__)
  // statm field 2 is resident pages; cheaper and simpler than smaps.
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size = 0;
    long long resident = 0;
    const int got = std::fscanf(f, "%lld %lld", &size, &resident);
    std::fclose(f);
    if (got == 2) {
      return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
    }
  }
#endif
  return 0;
}

std::int64_t HostProfiler::peak_rss_bytes() {
#if defined(__linux__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
  }
#endif
  return 0;
}

// --- Thread frame machinery -------------------------------------------------

std::uint32_t HostProfiler::ThreadState::enter(const char* label) {
  FrameNode& cur = nodes[current];
  for (const std::uint32_t c : cur.children) {
    if (nodes[c].label == label) return c;
  }
  const auto idx = static_cast<std::uint32_t>(nodes.size());
  nodes[current].children.push_back(idx);
  FrameNode node;
  node.label = label;
  node.parent = current;
  nodes.push_back(std::move(node));
  return idx;
}

HostProfiler* HostProfiler::current() { return g_tls_profiler; }

HostProfiler::ThreadState* HostProfiler::acquire_thread_state() {
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, state] : threads_) {
    if (id == me) return state.get();
  }
  threads_.emplace_back(me, std::make_unique<ThreadState>());
  return threads_.back().second.get();
}

HostProfiler::Activation::Activation(HostProfiler* p)
    : prev_profiler_(g_tls_profiler), prev_state_(g_tls_state) {
  g_tls_profiler = p;
  g_tls_state = p != nullptr ? p->acquire_thread_state() : nullptr;
}

HostProfiler::Activation::~Activation() {
  g_tls_profiler = prev_profiler_;
  g_tls_state = prev_state_;
}

HostProfiler::Frame::Frame(const char* label) : ts_(g_tls_state) {
  if (ts_ == nullptr) return;
  parent_ = ts_->current;
  ts_->current = ts_->enter(label);
  t0_ = raw_ticks();
}

HostProfiler::Frame::~Frame() {
  if (ts_ == nullptr) return;
  ts_->nodes[ts_->current].stat.record(raw_ticks() - t0_);
  ts_->current = parent_;
}


// --- Export -----------------------------------------------------------------

namespace {

/// One row of the merged (cross-thread) frame tree.
struct MergedFrame {
  std::string path;
  HostStat stat;
  std::int64_t child_total_ticks = 0;
  int depth = 0;
};

void merge_tree(const std::vector<HostProfiler::FrameNode>& nodes,
                std::uint32_t node, const std::string& prefix, int depth,
                std::map<std::string, MergedFrame>& out) {
  const HostProfiler::FrameNode& n = nodes[node];
  const std::string path =
      prefix.empty() ? std::string(n.label) : prefix + "/" + n.label;
  MergedFrame& m = out[path];
  m.path = path;
  m.depth = depth;
  m.stat.count += n.stat.count;
  m.stat.total_ticks += n.stat.total_ticks;
  m.stat.max_ticks = std::max(m.stat.max_ticks, n.stat.max_ticks);
  std::int64_t child_total = 0;
  for (const std::uint32_t c : n.children) {
    merge_tree(nodes, c, path, depth + 1, out);
    child_total += nodes[c].stat.total_ticks;
  }
  m.child_total_ticks += child_total;
}

void write_ns(JsonWriter& w, std::int64_t ticks, double ns_per_tick) {
  w.number(static_cast<double>(
      static_cast<std::int64_t>(static_cast<double>(ticks) * ns_per_tick)));
}

}  // namespace

void HostProfiler::write_json(std::ostream& os) {
  // Close (but keep open) the current phase so its wall shows up.
  const std::int64_t now = raw_ticks();
  phase_ticks_[static_cast<int>(phase_)] += now - phase_start_ticks_;
  phase_start_ticks_ = now;
  phase_rss_bytes_[static_cast<int>(phase_)] = current_rss_bytes();

  const double npt = ns_per_tick();

  std::lock_guard<std::mutex> lock(mu_);
  memory_["rss_peak_bytes"] = static_cast<double>(peak_rss_bytes());
  memory_["rss_current_bytes"] = static_cast<double>(current_rss_bytes());

  JsonWriter w(os);
  w.raw("{\n  \"schema\": ").string(kHostProfileSchema);

  w.raw(",\n  \"meta\": {");
  bool first = true;
  for (const auto& [k, v] : meta_) {
    w.raw(first ? "\n    " : ",\n    ");
    first = false;
    w.string(k).raw(": ").string(v);
  }
  w.raw(first ? "}" : "\n  }");

  w.raw(",\n  \"clock\": {\"source\": ");
#if defined(__x86_64__)
  w.string("rdtsc");
#else
  w.string("steady_clock");
#endif
  w.raw(", \"ns_per_tick\": ").number(npt);
  w.raw(", \"threads\": ").integer(threads_.size()).raw('}');

  w.raw(",\n  \"phases\": {");
  for (int p = 0; p < static_cast<int>(HostPhase::kCount); ++p) {
    w.raw(p == 0 ? "\n    " : ",\n    ");
    w.string(host_phase_name(static_cast<HostPhase>(p)));
    w.raw(": {\"wall_ns\": ");
    write_ns(w, phase_ticks_[p], npt);
    w.raw(", \"rss_bytes\": ");
    w.number(static_cast<double>(phase_rss_bytes_[p])).raw('}');
  }
  w.raw("\n  }");

  w.raw(",\n  \"subsystems\": {");
  for (int c = 0; c < kNumHostCats; ++c) {
    w.raw(c == 0 ? "\n    " : ",\n    ");
    w.string(host_cat_name(static_cast<HostCat>(c)));
    w.raw(": {\"events\": ").integer(cats_[c].count).raw(", \"total_ns\": ");
    write_ns(w, cats_[c].total_ticks, npt);
    w.raw(", \"max_ns\": ");
    write_ns(w, cats_[c].max_ticks, npt);
    w.raw('}');
  }
  w.raw("\n  }");

  // Merge per-thread trees by path. std::map keys give a stable, readable
  // order in which every parent precedes its children.
  std::map<std::string, MergedFrame> merged;
  for (const auto& [id, state] : threads_) {
    for (const std::uint32_t c : state->nodes[0].children) {
      merge_tree(state->nodes, c, "", 0, merged);
    }
  }
  w.raw(",\n  \"frames\": [");
  first = true;
  for (const auto& [path, m] : merged) {
    w.raw(first ? "\n    " : ",\n    ");
    first = false;
    w.raw("{\"path\": ").string(path);
    w.raw(", \"depth\": ").integer(m.depth);
    w.raw(", \"count\": ").integer(m.stat.count).raw(", \"total_ns\": ");
    write_ns(w, m.stat.total_ticks, npt);
    w.raw(", \"self_ns\": ");
    write_ns(w, std::max<std::int64_t>(
                    0, m.stat.total_ticks - m.child_total_ticks),
             npt);
    w.raw(", \"max_ns\": ");
    write_ns(w, m.stat.max_ticks, npt);
    w.raw('}');
  }
  w.raw(first ? "]" : "\n  ]");

  w.raw(",\n  \"memory\": {");
  first = true;
  for (const auto& [k, v] : memory_) {
    w.raw(first ? "\n    " : ",\n    ");
    first = false;
    w.string(k).raw(": ").number(v);
  }
  w.raw(first ? "}" : "\n  }");

  w.raw("\n}\n");
  w.flush();
}

void HostProfiler::emit_trace_track(TraceRecorder& trace) {
  trace.set_process_name(kHostTracePid, "host (self-profiler)");
  trace.set_thread_name(kHostTracePid, 0, "subsystems");
  trace.set_thread_name(kHostTracePid, 1, "phases");
  const double npt = ns_per_tick();
  // Host nanoseconds drawn on the sim-seconds timeline at 1e9:1 — a span of
  // host-time 1ms renders as 1ms. Subsystem totals are laid end to end.
  double cursor = 0.0;
  for (int c = 0; c < kNumHostCats; ++c) {
    if (cats_[c].count == 0) continue;
    const double secs =
        static_cast<double>(cats_[c].total_ticks) * npt / 1e9;
    const SpanId s = trace.begin(host_cat_name(static_cast<HostCat>(c)),
                                 "host", kHostTracePid, 0, cursor, "events",
                                 static_cast<double>(cats_[c].count));
    trace.end(s, cursor + secs);
    cursor += secs;
  }
  double phase_cursor = 0.0;
  for (int p = 0; p < static_cast<int>(HostPhase::kCount); ++p) {
    const double secs =
        static_cast<double>(phase_ticks_[p]) * npt / 1e9;
    if (secs <= 0.0) continue;
    const SpanId s =
        trace.begin(host_phase_name(static_cast<HostPhase>(p)), "host",
                    kHostTracePid, 1, phase_cursor);
    trace.end(s, phase_cursor + secs);
    phase_cursor += secs;
  }
}

}  // namespace mron::obs
