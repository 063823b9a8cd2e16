// Self-tests of the benchmark's own arithmetic: percentile support,
// open-loop timing from the due time, and span self time. Exit status 0
// when every check holds; perfbench/run.py runs this before each run.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void percentile_support() {
  // p99 needs 10 samples above the nearest rank ceil(0.99 n).
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(!supported_quantile(ramp(999), 0.99), "p99 withheld at n=999");
  const auto p99 = supported_quantile(ramp(1000), 0.99);
  expect(p99 && *p99 == 990.0, "p99 of 1..1000 is 990");
  expect(min_samples_for(0.5) == 20, "p50 needs 20 samples");
  expect(!supported_quantile(ramp(19), 0.5), "p50 withheld at n=19");
  const auto p50 = supported_quantile(ramp(20), 0.5);
  expect(p50 && *p50 == 10.0, "p50 of 1..20 is 10");
  expect(median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
  expect(median({}) == 0.0, "empty median is 0");
}

void open_loop_timing() {
  // A request due at 10 ms, sent late at 25 ms, answered at 27 ms waited
  // 17 ms: the generator's stall counts as latency.
  expect(latency_from_due(10'000'000, 27'000'000) == 17'000'000,
         "latency runs from the due time, not the send time");
  const auto a = poisson_due_times(1000.0, 20000, 7);
  const auto b = poisson_due_times(1000.0, 20000, 7);
  expect(a == b, "the schedule is a function of the seed");
  bool rising = true;
  for (std::size_t i = 1; i < a.size(); ++i) rising &= a[i] >= a[i - 1];
  expect(rising, "due times never decrease");
  const double mean_gap_ms = static_cast<double>(a.back()) / 1e6 / a.size();
  expect(std::abs(mean_gap_ms - 1.0) < 0.05, "mean gap is 1/rate");
}

void self_time() {
  using trace::SpanRecord;
  // parent [0,100) with children [10,30), [20,50) overlapping and
  // [90,120) running past the parent's end; a grandchild [12,18).
  std::vector<SpanRecord> s(5);
  s[0] = {"p", 1, 0, 0, 1, 0, 100};
  s[1] = {"c", 2, 1, 0, 1, 10, 30};
  s[2] = {"c", 3, 1, 0, 1, 20, 50};
  s[3] = {"c", 4, 1, 0, 1, 90, 120};
  s[4] = {"g", 5, 2, 0, 1, 12, 18};
  const auto self = trace::self_times(s);
  expect(self.at(1) == 100 - 40 - 10, "parent self = 100 - |[10,50)| - |[90,100)|");
  expect(self.at(2) == 20 - 6, "child self excludes its grandchild");
  expect(self.at(3) == 30, "leaf self is its duration");
  const auto names = trace::by_name(s);
  expect(names.at("c").count == 3 && names.at("c").total_ns == 80,
         "per-name totals");
  expect(names.at("c").self_ns == 14 + 30 + 30, "per-name self totals");
}

}  // namespace

int main() {
  percentile_support();
  open_loop_timing();
  self_time();
  if (g_failures == 0) std::cout << "selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
