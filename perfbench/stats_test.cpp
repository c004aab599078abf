// Unit test of perfbench/stats.hpp: the percentile rule and outage_ms on
// synthetic timelines. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using perfbench::Completion;
  using perfbench::outageMs;
  using perfbench::percentile;

  // Nearest rank: p50 of 1..100 is 50, p90 is 90 (ten samples beyond it).
  check(percentile(oneTo(100), 50) == 50.0, "p50 of 1..100 is 50");
  check(percentile(oneTo(100), 90) == 90.0, "p90 of 1..100 is 90");
  // p90 needs ten samples beyond its rank: 99 samples leave only 9.
  check(!percentile(oneTo(99), 90).has_value(), "p90 of 99 samples is refused");
  check(percentile(oneTo(1000), 99) == 990.0, "p99 of 1..1000 is 990");
  check(!percentile(oneTo(999), 99).has_value(), "p99 of 999 samples is refused");
  check(percentile(oneTo(11), 1, 10) == 1.0, "p1 of 11 samples keeps ten beyond");
  check(!percentile({}, 50).has_value(), "empty sample has no percentile");
  check(!percentile(oneTo(100), 0).has_value(), "p0 is out of range");
  check(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");

  // Outage: crash at t=1000 ns. Replies to requests issued before the crash
  // (even late ones) do not count; the first reply to a request issued at or
  // after the crash ends it, whatever order the log is in.
  const std::int64_t ms = 1'000'000;
  const std::vector<Completion> timeline = {
      {0, 500},              // before the crash
      {900, 90 * ms},        // issued before, answered after failover
      {2000, 81 * ms + 1000},  // issued after: answered 81 ms after the crash
      {1500, 95 * ms},
      {3000, 82 * ms},
  };
  check(outageMs(1000, timeline) == 81.0, "outage ends at the first post-crash reply");
  check(outageMs(1500, timeline) == (81.0 * ms + 1000 - 1500) / 1e6,
        "a request issued at the crash instant counts");
  check(!outageMs(4000, timeline).has_value(), "no post-crash reply means no outage figure");
  check(!outageMs(0, {}).has_value(), "empty timeline");

  // Sliced percentiles: 5 slices of 1 ms holding 200 requests each, 10 us
  // latency, except that a stall delays every request of slice 2 by 5 ms.
  // The stall moves one slice's p90, not the median over slices; a request
  // outside the window is ignored; a too-thin slice is skipped.
  std::vector<Completion> log;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 200; ++i) {
      const std::int64_t t = slice * 1'000'000 + i * 5'000;
      log.push_back({t, t + (slice == 2 ? 5'000'000 : 10'000)});
    }
  }
  log.push_back({-1, 999'000'000});
  check(perfbench::slicedPercentileUs(log, 0, 5'000'000, 1'000'000, 90) == 10.0,
        "a one-slice stall leaves the sliced p90 alone");
  check(perfbench::slicedPercentileUs(log, 0, 5'000'000, 5'000'000, 90) == 5000.0,
        "one slice over the whole window sees the stall");
  check(!perfbench::slicedPercentileUs(log, 0, 1'000, 1'000, 90).has_value(),
        "a slice with one request has no p90");
  check(!perfbench::slicedPercentileUs(log, 5, 5, 1'000, 90).has_value(), "empty window");

  if (failures) return EXIT_FAILURE;
  std::printf("stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
