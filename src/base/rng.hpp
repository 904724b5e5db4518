// Deterministic pseudo-random number generation.
//
// The whole reproduction must be bit-reproducible across runs, so all
// stochastic inputs (initial conditions, particle placement, workload
// generators, property-test sweeps) draw from this splittable generator
// instead of std::random_device / std::mt19937 seeded ad hoc.
#pragma once

#include <cstdint>

namespace paramrio {

/// SplitMix64: tiny, fast, high-quality 64-bit generator.  Used both as a
/// generator and to derive independent child seeds (split()).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).  n must be > 0.
  std::uint64_t next_below(std::uint64_t n) { return next_u64() % n; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_in(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Approximately standard-normal variate (sum of 12 uniforms minus 6 —
  /// cheap, deterministic, and plenty for synthetic initial conditions).
  double next_gaussian() {
    double s = 0.0;
    for (int i = 0; i < 12; ++i) s += next_double();
    return s - 6.0;
  }

  /// Skip the next `n` draws in O(1): the stream continues exactly as if
  /// next_u64() had been called `n` times.  SplitMix64's state is a counter
  /// stepped by a fixed odd constant, so a skip is one multiply-add.
  void discard(std::uint64_t n) { state_ += n * kGamma; }

  /// Derive an independent child generator (e.g. one per rank, per grid).
  Rng split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  std::uint64_t state_;
};

}  // namespace paramrio
