// Self-test of the benchmark's own arithmetic. Run by `ctest` in the
// benchmark's build directory and by `python3 jobbench/run.py --self-test`.
// Exits 0 when every check holds, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_percentile() {
  using jobbench::percentile;
  // 1..10 shuffled: nearest rank picks measured values, never interpolates.
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  check(percentile(ten, 0.5).value == 5.0, "p50 of 1..10 is 5");
  check(percentile(ten, 0.9).value == 9.0, "p90 of 1..10 is 9, not 10");
  check(percentile(ten, 1.0).value == 10.0, "p100 is the maximum");
  check(percentile(ten, 0.01).value == 1.0, "p1 is the minimum");
  check(percentile(ten, 0.9).samples == 10, "sample count is reported");
  check(percentile({4.0}, 0.9).value == 4.0, "one sample is every pct");
  check(percentile({}, 0.5).samples == 0 && percentile({}, 0.5).value == 0,
        "empty input");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(percentile(hundred, 0.9).value == 90.0, "p90 of 1..100 is 90");
  check(jobbench::median({3, 1, 2}) == 2.0, "odd median");
  check(jobbench::median({4, 1, 3, 2}) == 2.5, "even median averages");
}

void test_self_time() {
  using jobbench::self_time_ns;
  check(self_time_ns(0, 100, {}) == 100.0, "no children: all self");
  check(self_time_ns(0, 100, {{10, 30}, {50, 60}}) == 70.0,
        "disjoint children subtract");
  check(self_time_ns(0, 100, {{10, 40}, {20, 50}}) == 60.0,
        "overlapping (parallel) children count once");
  check(self_time_ns(0, 100, {{-20, 10}, {90, 130}}) == 80.0,
        "children are clipped to the parent");
  check(self_time_ns(0, 100, {{0, 100}, {30, 40}}) == 0.0,
        "fully covered parent has no self time");

  // Through the log: parent/child linkage from the thread's open stack and
  // an explicit parent for work on another thread.
  jobbench::SpanLog log;
  const int outer = log.open("outer", 0);
  const int inner = log.open("inner", 0);
  log.close(inner);
  std::thread worker([&] {
    const int w = log.open("worker", 0, outer);
    log.close(w);
  });
  worker.join();
  log.close(outer);
  const auto spans = log.spans();
  check(spans.size() == 3, "three spans recorded");
  check(spans[1].parent == outer, "nested span gets the open parent");
  check(spans[2].parent == outer, "explicit parent across threads");
  check(spans[0].parent == jobbench::SpanLog::kNoParent, "root has none");
  const auto st = log.self_times();
  const double outer_dur =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  check(st.at("outer").total_ns <= outer_dur, "self time <= duration");
  check(st.at("outer").count == 1 && st.at("inner").count == 1,
        "one span per name");
}

void test_peak_rss() {
  using jobbench::parse_vmhwm_kb;
  const char* status =
      "Name:\tjobbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t    9000 kB\n";
  check(parse_vmhwm_kb(status) == 12345, "VmHWM parsed in kB");
  check(!parse_vmhwm_kb("VmRSS:\t 10 kB\n"), "missing VmHWM");
  check(!parse_vmhwm_kb("VmHWM:\t kB\n"), "VmHWM without digits");
  check(!parse_vmhwm_kb("XVmHWM:\t 5 kB\n"), "key must start a line");

  // The live read grows when 64 MiB is touched.
  const double before = jobbench::peak_rss_mb();
  check(before > 0.0, "peak RSS is positive");
  constexpr std::size_t kBytes = 64u << 20;
  auto block = std::make_unique<char[]>(kBytes);
  std::memset(block.get(), 1, kBytes);
  const double after = jobbench::peak_rss_mb();
  check(after >= before + 60.0, "touching 64 MiB raises peak RSS");
  check(block[kBytes - 1] == 1, "block stays live");
}

void test_digest() {
  jobbench::Digest a, b, c;
  a.add(1.5);
  a.add(std::int64_t{7});
  b.add(1.5);
  b.add(std::int64_t{7});
  c.add(std::int64_t{7});
  c.add(1.5);
  check(a.value() == b.value(), "same inputs, same digest");
  check(a.value() != c.value(), "order matters");
  jobbench::Digest z1, z2;
  z1.add(0.0);
  z2.add(-0.0);
  check(z1.value() == z2.value(), "-0.0 digests like 0.0");
  check(a.hex().size() == 16, "hex is 16 digits");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_peak_rss();
  test_digest();
  if (g_failures == 0) std::printf("jobbench self-test: all checks pass\n");
  return g_failures == 0 ? 0 : 1;
}
