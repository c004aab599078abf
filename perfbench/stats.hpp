// Order statistics used by the benchmark. Header-only and free of library
// dependencies so stats_test.cpp can check them on synthetic timelines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p/100 * n). Returns nullopt unless at least `min_beyond` samples lie
/// above that rank — a tail percentile resting on fewer samples does not
/// repeat from run to run, so the benchmark refuses to report it.
inline std::optional<double> percentile(const std::vector<double>& sorted, double p,
                                        std::size_t min_beyond = 10) {
  const std::size_t n = sorted.size();
  if (n == 0 || p <= 0 || p > 100) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One request on a timeline: when it was issued and when its reply came.
struct Completion {
  std::int64_t submit_ns = 0;
  std::int64_t done_ns = 0;
};

/// Time without service after a crash: from `crash_ns` (the crash call
/// returning) to the first reply for a request issued at or after it.
/// Replies to requests issued before the crash do not end the outage — they
/// may have been ordered before the sequencer died. nullopt when no request
/// issued after the crash was ever answered.
inline std::optional<double> outageMs(std::int64_t crash_ns, const std::vector<Completion>& log) {
  std::optional<std::int64_t> first;
  for (const Completion& c : log) {
    if (c.submit_ns < crash_ns) continue;
    if (!first || c.done_ns < *first) first = c.done_ns;
  }
  if (!first) return std::nullopt;
  return static_cast<double>(*first - crash_ns) / 1e6;
}

/// A latency percentile per time slice, then the median over the slices.
/// Each request counts in the slice its submit time falls in, slices being
/// `slice_ns` long from `from`; requests submitted outside [from, to) are
/// ignored. A slice whose percentile the ten-beyond rule refuses is skipped.
/// A stall that delays one slice's requests moves that slice's figure, not
/// the median. Latencies are returned in microseconds.
inline std::optional<double> slicedPercentileUs(const std::vector<Completion>& log,
                                                std::int64_t from, std::int64_t to,
                                                std::int64_t slice_ns, double p) {
  if (to <= from || slice_ns <= 0) return std::nullopt;
  std::vector<std::vector<double>> slices(
      static_cast<std::size_t>((to - from + slice_ns - 1) / slice_ns));
  for (const Completion& c : log) {
    if (c.submit_ns < from || c.submit_ns >= to) continue;
    slices[static_cast<std::size_t>((c.submit_ns - from) / slice_ns)].push_back(
        static_cast<double>(c.done_ns - c.submit_ns) / 1e3);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& s : slices) {
    std::sort(s.begin(), s.end());
    if (auto v = percentile(s, p)) per_slice.push_back(*v);
  }
  if (per_slice.empty()) return std::nullopt;
  return median(per_slice);
}

}  // namespace perfbench
