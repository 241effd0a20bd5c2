// Host-side self-profiler: the sixth recorder pillar.
//
// The five flight-recorder pillars measure the *simulated* cluster; this one
// measures the *simulator* — where the process's own wall-clock time and
// memory go. Three coordinated views:
//
//   1. Scoped frames. `HOST_PROF_SCOPE("engine.dispatch")` opens an RAII
//      frame on the calling thread's frame stack; per-(path, label) call
//      count / total / max wall-nanos aggregate into a tree. Frame stacks
//      are thread-local (safe under the `--jobs=N` work-stealing runner):
//      the hot path touches only the caller's own ThreadState — no lock, no
//      atomic — and a mutex is taken only when a thread first attaches
//      (Activation) and at export, when the per-thread trees are merged.
//   2. Engine dispatch accounting. When a profiler is attached, the engine
//      stamps every scheduled event with a coarse subsystem category
//      (HostCat, inherited from the scheduling context via CatScope) and
//      charges the wall delta between category *transitions* to the
//      category of the run that just ended — "host-ns per event per
//      subsystem" with one clock read per run of same-category events, so
//      the per-subsystem totals sum to the steady loop's wall time by
//      construction while the clock cost amortizes across each run.
//   3. Memory + phases. Peak RSS (getrusage), current RSS (/proc), and
//      caller-registered arena byte counters (slot map, ready queue, series
//      store, trace buffer), split across an explicit Setup (construction)
//      vs Steady (event loop) phase boundary — the "is setup still O(n)?"
//      question made measurable.
//
// Host time is nondeterministic, so none of this may ever reach
// run_report.json: the profile exports through its own versioned document
// (`mron.host_profile/1`, see write_json) behind a separate --profile-out
// flag, and a regression test pins that run reports stay byte-identical
// with profiling on or off.
//
// Clocking: raw_ticks() reads the TSC on x86-64 (~5-10ns, an order cheaper
// than clock_gettime) and falls back to steady_clock elsewhere. Tick counts
// are stored raw and converted to nanoseconds at export, using a ratio
// measured between two (ticks, steady_clock) anchor pairs spanning the
// profiler's whole lifetime — no upfront calibration spin.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mron::obs {

class TraceRecorder;

/// Coarse subsystem taxonomy for engine dispatch accounting. Every event
/// carries the category of the context that scheduled it (see CatScope);
/// kEngine doubles as "unattributed".
enum class HostCat : std::uint8_t {
  kEngine = 0,
  kSharedServer,
  kMonitor,
  kDfs,
  kYarn,
  kAmTask,
  kTuner,
  kFaults,
  kCount,
};

inline constexpr int kNumHostCats = static_cast<int>(HostCat::kCount);

/// Stable snake_case names used as JSON keys ("engine", "shared_server",
/// "am_task", ...).
[[nodiscard]] const char* host_cat_name(HostCat c);

/// Process lifecycle phases. Setup = Simulation construction + dataset
/// placement; Steady = the event loop, and nothing else, so the
/// per-subsystem dispatch totals tile its wall by construction; Teardown =
/// everything after each drain (final recorder flush, result assembly,
/// export prep — and, on tuned multi-run sessions, the between-run tuner
/// bookkeeping). A profiler starts in kSetup; Simulation::run() flips to
/// kSteady around the loop and to kTeardown when it drains. Phases
/// re-entered on later runs accumulate.
enum class HostPhase : std::uint8_t {
  kSetup = 0,
  kSteady,
  kTeardown,
  kCount,
};

[[nodiscard]] const char* host_phase_name(HostPhase p);

/// One aggregate: call/event count, total and max duration (raw ticks).
struct HostStat {
  std::int64_t count = 0;
  std::int64_t total_ticks = 0;
  std::int64_t max_ticks = 0;

  void record(std::int64_t ticks) {
    ++count;
    total_ticks += ticks;
    if (ticks > max_ticks) max_ticks = ticks;
  }
};

namespace detail {
/// Thread-local subsystem category (see HostProfiler::CatScope). Lives
/// outside any profiler so category context survives Activation swaps, and
/// in the header so the CatScope hot path inlines to two TLS byte moves.
inline thread_local std::uint8_t g_tls_cat = 0;
}  // namespace detail

class HostProfiler {
 public:
  HostProfiler();
  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;
  ~HostProfiler();

  /// Cheap monotonic clock: TSC ticks on x86-64, steady_clock nanoseconds
  /// elsewhere. Only differences are meaningful; convert with ns_per_tick().
  /// Inline: the profiled dispatch loop reads it once per event.
  [[nodiscard]] static std::int64_t raw_ticks() {
#if defined(__x86_64__)
    // Invariant-TSC on every post-2008 x86-64: constant rate, monotonic,
    // ~5-10ns to read vs ~20-25ns for clock_gettime. Converted to ns at
    // export via the lifetime-spanning anchors.
    return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }

  /// Nanoseconds per raw tick, measured across the profiler's lifetime so
  /// far. ~1.0 on the steady_clock fallback.
  [[nodiscard]] double ns_per_tick() const;

  // --- Phases ------------------------------------------------------------

  /// Close the current phase (accumulating its wall ticks and snapshotting
  /// RSS) and open `p`. Re-entering the current phase is a no-op; phases
  /// may be re-entered and accumulate.
  void begin_phase(HostPhase p);
  [[nodiscard]] HostPhase phase() const { return phase_; }
  /// Wall-nanos accumulated in `p`, including the open phase's elapsed time.
  [[nodiscard]] std::int64_t phase_wall_ns(HostPhase p) const;

  // --- Engine dispatch accounting (single engine thread) -----------------

  /// Charge `ticks` of host time and `n` dispatched events to subsystem
  /// `cat`. The engine's profiled run loop calls this once per contiguous
  /// same-category run (so max_ticks tracks the worst *run*, not the worst
  /// single event); not thread-safe across engines (each Simulation owns
  /// its own profiler). Inline: on the dispatch hot path.
  void record_events(std::uint8_t cat, std::int64_t ticks, std::int64_t n) {
    if (cat >= kNumHostCats) cat = 0;
    cats_[cat].count += n;
    cats_[cat].total_ticks += ticks;
    if (ticks > cats_[cat].max_ticks) cats_[cat].max_ticks = ticks;
  }
  /// Single-event convenience form (a run of length one).
  void record_event(std::uint8_t cat, std::int64_t ticks) {
    record_events(cat, ticks, 1);
  }
  [[nodiscard]] const HostStat& subsystem(HostCat c) const {
    return cats_[static_cast<int>(c)];
  }
  /// Sum of all subsystem total ticks, in nanoseconds.
  [[nodiscard]] std::int64_t subsystem_total_ns() const;

  // --- Memory + metadata -------------------------------------------------

  /// Register/overwrite an arena byte counter (e.g. "engine.slot_map_bytes").
  /// Peak/current RSS are added automatically at export.
  void set_memory(const std::string& key, double bytes);
  /// Attach a metadata string (app name, node count, ...) to the export.
  void set_meta(const std::string& key, const std::string& value);

  /// Current process RSS in bytes (0 where /proc is unavailable) and peak
  /// RSS in bytes via getrusage.
  [[nodiscard]] static std::int64_t current_rss_bytes();
  [[nodiscard]] static std::int64_t peak_rss_bytes();

  // --- Export ------------------------------------------------------------

  /// Serialize the `mron.host_profile/1` document. Merges the per-thread
  /// frame trees; call only after worker threads using this profiler have
  /// quiesced. Does not reset state, so it may be called repeatedly (each
  /// export re-closes the open phase).
  void write_json(std::ostream& os);

  /// Optional host-time track in the Chrome trace: lays the per-subsystem
  /// host totals and the setup/steady phase walls out as spans under a
  /// synthetic "host" process (kHostTracePid). Host time is
  /// nondeterministic — only traces exported alongside --profile-out carry
  /// this lane.
  void emit_trace_track(TraceRecorder& trace);

  // --- Thread frame machinery --------------------------------------------

  /// One thread's frame tree. Node 0 is the root; children are found by
  /// label identity (string literals by contract of HOST_PROF_SCOPE), with
  /// a small linear scan — frame trees are shallow and narrow.
  struct FrameNode {
    const char* label = nullptr;
    std::uint32_t parent = 0;
    HostStat stat;
    std::vector<std::uint32_t> children;
  };
  struct ThreadState {
    std::vector<FrameNode> nodes;
    std::uint32_t current = 0;
    ThreadState() { nodes.emplace_back(); }
    std::uint32_t enter(const char* label);
  };

  /// RAII: make `p` the calling thread's active profiler (nullptr
  /// deactivates — frames become no-ops). Takes the registry mutex once to
  /// find-or-create this thread's ThreadState; nests and restores.
  class Activation {
   public:
    explicit Activation(HostProfiler* p);
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;
    ~Activation();

   private:
    HostProfiler* prev_profiler_;
    ThreadState* prev_state_;
  };

  /// RAII scoped frame. `label` must be a string literal (stored by
  /// pointer). No-op when the thread has no active profiler.
  class Frame {
   public:
    explicit Frame(const char* label);
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    ~Frame();

   private:
    ThreadState* ts_;
    std::uint32_t parent_ = 0;
    std::int64_t t0_ = 0;
  };

  /// RAII thread-local subsystem category. The engine reads
  /// CatScope::current() when an event is scheduled (so events inherit the
  /// category of the code that scheduled them) and re-establishes the
  /// dispatched event's category around its callback (so re-arms inherit).
  class CatScope {
   public:
    explicit CatScope(HostCat c) : prev_(detail::g_tls_cat) {
      detail::g_tls_cat = static_cast<std::uint8_t>(c);
    }
    CatScope(const CatScope&) = delete;
    CatScope& operator=(const CatScope&) = delete;
    ~CatScope() { detail::g_tls_cat = prev_; }
    [[nodiscard]] static std::uint8_t current() { return detail::g_tls_cat; }

   private:
    std::uint8_t prev_;
  };

  /// The calling thread's active profiler (nullptr when none).
  [[nodiscard]] static HostProfiler* current();

  /// Find-or-create the calling thread's ThreadState (takes the registry
  /// mutex). Activation does this for you.
  [[nodiscard]] ThreadState* acquire_thread_state();

 private:
  // Clock anchors for tick->ns conversion, taken at construction.
  std::int64_t anchor_ticks_;
  std::int64_t anchor_steady_ns_;

  HostPhase phase_ = HostPhase::kSetup;
  std::int64_t phase_start_ticks_;
  std::int64_t phase_ticks_[static_cast<int>(HostPhase::kCount)] = {};
  std::int64_t phase_rss_bytes_[static_cast<int>(HostPhase::kCount)] = {};

  HostStat cats_[kNumHostCats];

  std::map<std::string, double> memory_;
  std::map<std::string, std::string> meta_;

  mutable std::mutex mu_;  // guards threads_ registration + export merge
  std::vector<std::pair<std::thread::id, std::unique_ptr<ThreadState>>>
      threads_;
};

/// Synthetic Chrome-trace pid for the host-time lane (the tuner lane uses
/// 1 << 20).
inline constexpr int kHostTracePid = (1 << 20) + 1;

/// Version tag of the host-profile document.
inline constexpr const char* kHostProfileSchema = "mron.host_profile/1";

}  // namespace mron::obs

// Scoped-frame + category macros.
#define MRON_HP_CONCAT2(a, b) a##b
#define MRON_HP_CONCAT(a, b) MRON_HP_CONCAT2(a, b)
#define HOST_PROF_SCOPE(label)     \
  ::mron::obs::HostProfiler::Frame \
  MRON_HP_CONCAT(mron_hp_frame_, __LINE__)(label)
#define HOST_PROF_CATEGORY(cat)       \
  ::mron::obs::HostProfiler::CatScope \
  MRON_HP_CONCAT(mron_hp_cat_, __LINE__)(::mron::obs::HostCat::cat)
