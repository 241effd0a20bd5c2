#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

namespace jobbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Rank ceil(q * n), 1-based; the epsilon keeps q * n that should be a
  // whole number (0.9 * 10) from rounding up past it.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
/// Open spans of the calling thread, innermost last. One SpanLog is live
/// per process, so the stack needs no key.
thread_local std::vector<int> t_open;
}  // namespace

int SpanLog::open(std::string name, int job, int parent) {
  if (parent == kInherit) parent = t_open.empty() ? kNoParent : t_open.back();
  const std::int64_t t = now_ns();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), t, t, parent, job});
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  const std::int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double self_time_ns(std::int64_t start, std::int64_t end,
                    std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
  for (auto& [a, b] : kids) {
    a = std::clamp(a, start, end);
    b = std::clamp(b, start, end);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // end of the union so far
  for (const auto& [a, b] : kids) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return static_cast<double>(end - start - covered);
}

std::map<std::string, SpanLog::SelfTime> SpanLog::self_times() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      all.size());
  for (const Span& s : all) {
    if (s.parent != kNoParent) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SelfTime& st = out[all[i].name];
    st.total_ns += self_time_ns(all[i].start_ns, all[i].end_ns,
                                std::move(kids[i]));
    ++st.count;
  }
  return out;
}

void SpanLog::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}";
  }
  os << "\n]}\n";
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, int job, int parent)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->open(std::move(name), job, parent);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->close(id_);
}

std::optional<std::int64_t> parse_vmhwm_kb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  const std::size_t at = status.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  if (at != 0 && status[at - 1] != '\n') return std::nullopt;
  std::size_t i = at + kKey.size();
  while (i < status.size() && (status[i] == ' ' || status[i] == '\t')) ++i;
  std::int64_t kb = 0;
  const std::size_t digits_from = i;
  while (i < status.size() && status[i] >= '0' && status[i] <= '9') {
    kb = kb * 10 + (status[i] - '0');
    ++i;
  }
  if (i == digits_from) return std::nullopt;
  if (status.substr(i, 3) != " kB") return std::nullopt;
  return kb;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  if (in) {
    std::stringstream ss;
    ss << in.rdbuf();
    if (const auto kb = parse_vmhwm_kb(ss.str())) {
      return static_cast<double>(*kb) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB
}

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 and 0.0 digest alike
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_bytes(&bits, sizeof bits);
}

void Digest::add(std::int64_t v) { add_bytes(&v, sizeof v); }

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace jobbench
