#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"

namespace paramrio::obs {

int Histogram::bucket_of(double seconds) {
  const double us = seconds * 1e6;
  if (!(us > 1.0)) return 0;  // also catches NaN and negatives
  int exp = 0;
  std::frexp(us, &exp);  // us = m * 2^exp with m in [0.5, 1)
  return exp > 0 ? exp : 0;
}

double Histogram::bucket_upper_seconds(int idx) {
  return std::ldexp(1.0, idx) * 1e-6;
}

void Histogram::record(double seconds) {
  buckets_[bucket_of(seconds)] += 1;
  samples_.push_back(seconds);
  sum_ += seconds;
  max_ = std::max(max_, seconds);
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: smallest value with at least p% of samples at or below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void Histogram::export_to(MetricsRegistry& reg, const std::string& scope) const {
  if (samples_.empty()) return;
  for (const auto& [idx, n] : buckets_) {
    reg.add(scope, "bucket_" + std::to_string(idx), n);
  }
  reg.set(scope, "count", count());
  reg.set_value(scope, "sum_seconds", sum_);
  reg.set_value(scope, "max_seconds", max_);
  reg.set_value(scope, "p50", percentile(50.0));
  reg.set_value(scope, "p95", percentile(95.0));
  reg.set_value(scope, "p99", percentile(99.0));
}

}  // namespace paramrio::obs
