// The benchmark's own arithmetic, kept apart from the simulator calls so
// selftest.cc can check it: percentile selection, span self time, the
// peak-RSS read and the simulation digest.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jobbench {

/// A percentile together with the number of samples it was selected from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` of all samples are <= it (q in (0, 1]). No interpolation,
/// so the value is always one that was measured. Empty input gives 0.
Percentile percentile(std::vector<double> samples, double q);

/// Median with the two middle samples averaged for an even count.
double median(std::vector<double> samples);

/// Host time in nanoseconds on the steady clock.
std::int64_t now_ns();

/// Spans recorded around the benchmark's calls into the program. Each span
/// has a name, start, end, the span that caused it and the logical job it
/// belongs to. Spans live in memory until write_json. Thread-safe: the
/// parent defaults to the innermost span open on the calling thread.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;
  /// Parent argument meaning "the calling thread's innermost open span".
  static constexpr int kInherit = -2;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    int job = -1;
  };

  /// Open a span under `parent`: by default the calling thread's innermost
  /// open span; work fanned out to another thread names the span that
  /// caused it instead.
  int open(std::string name, int job, int parent = kInherit);
  void close(int id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Per span name: the summed self time, i.e. each span's duration minus
  /// the part of it that its children cover (overlapping children, such as
  /// parallel workers, are counted once), and the number of spans.
  struct SelfTime {
    double total_ns = 0.0;
    std::int64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// One JSON object: {"spans": [{"name", "start_ns", "end_ns", "parent",
  /// "job"}, ...]}, ids being indices into the array.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of one interval given its children's intervals: the length of
/// [start, end) not covered by the union of the children (clipped to it).
double self_time_ns(std::int64_t start, std::int64_t end,
                    std::vector<std::pair<std::int64_t, std::int64_t>> kids);

/// RAII span; a null log makes it a no-op, which is how the untraced run
/// pays nothing for tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int job,
             int parent = SpanLog::kInherit);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = SpanLog::kNoParent;
};

/// VmHWM (peak resident set) in kB from the text of /proc/self/status, or
/// nullopt when the line is missing or malformed.
std::optional<std::int64_t> parse_vmhwm_kb(std::string_view status);

/// The process's peak resident memory in MiB: /proc/self/status VmHWM,
/// falling back to getrusage where /proc is unavailable.
double peak_rss_mb();

/// FNV-1a over the bit patterns of simulated outputs. A change that only
/// speeds the simulator up leaves it unchanged.
class Digest {
 public:
  void add(double v);
  void add(std::int64_t v);
  void add(const Digest& d) { add(static_cast<std::int64_t>(d.h_)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  void add_bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace jobbench
