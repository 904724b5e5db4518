// Fixed-bucket latency histograms with exact deterministic percentiles.
//
// Buckets are powers of two in microseconds, computed with std::frexp so
// bucketing is exact bit arithmetic (no log/pow libm wobble across hosts):
// bucket i covers [2^(i-1), 2^i) µs, bucket 0 everything at or below 1 µs.
// Producers record whole virtual-second durations — pfs read/write attempts,
// network message latencies, two-phase collective windows.
//
// Percentiles are exact nearest-rank order statistics over the recorded
// samples (the sample count of an instrumented run is small — thousands, not
// billions — so keeping them is cheap and makes p50/p95/p99 deterministic to
// the bit rather than bucket-interpolated).
//
// Registry export is nonzero-only: a histogram that never recorded exports
// nothing, and only occupied buckets appear — clean-run registries stay
// byte-identical with instrumentation compiled in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace paramrio::obs {

class MetricsRegistry;

class Histogram {
 public:
  /// Log2 bucket index of a duration in seconds (exact, frexp-based).
  static int bucket_of(double seconds);

  /// Inclusive upper edge of bucket `idx`, in seconds.
  static double bucket_upper_seconds(int idx);

  void record(double seconds);

  std::uint64_t count() const { return static_cast<std::uint64_t>(samples_.size()); }
  double sum() const { return sum_; }
  double max() const { return max_; }
  const std::map<int, std::uint64_t>& buckets() const { return buckets_; }

  /// Exact nearest-rank percentile (p in [0, 100]) over recorded samples;
  /// 0.0 when empty.
  double percentile(double p) const;

  /// Persist under `scope`: per-bucket counts as "bucket_<idx>" (nonzero
  /// buckets only), plus count / sum_seconds / max_seconds / p50 / p95 /
  /// p99.  No-op when the histogram is empty.
  void export_to(MetricsRegistry& reg, const std::string& scope) const;

 private:
  std::map<int, std::uint64_t> buckets_;
  std::vector<double> samples_;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace paramrio::obs
