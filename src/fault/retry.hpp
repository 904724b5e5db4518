// Surviving short and transient transfers: one retry loop, fault::transfer,
// and the policy and counters it runs on.  Every retrying layer sends its
// transfers through it: pfs::FileSystem's read_at/write_at (protecting
// serial libraries like the HDF4 writer that talk to the file system
// directly), mpi::io::File (the ROMIO-style independent and two-phase
// collective paths), stage::StagedFs (record appends, tier reads and the
// drain) and query::Service.
//
// The rule, the same for every caller:
//   * an attempt moves a prefix of [done, len) and returns its length; a
//     short transfer resumes behind it and spends no budget;
//   * a TransientIoError spends one retry, and so does an attempt that
//     moves nothing; the budget counts per call and is never refilled by
//     progress;
//   * once it is spent the attempt's own exception propagates, or a
//     TransientIoError when the last attempt moved nothing;
//   * at least one attempt is made, so an empty transfer still reaches the
//     file system once.
//
// Delays are *virtual-clock* seconds: a retrying rank charges the backoff to
// its simulated processor as I/O time and records a retry-backoff wait for
// the blame engine, so retries cost virtual time exactly like a real
// blocked I/O call would, and runs stay bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace paramrio::fault {

struct RetryPolicy {
  /// Re-attempts after the first failure; 0 disables retrying (transient
  /// errors propagate to the caller unchanged).
  int max_retries = 0;
  /// Delay before the first re-attempt, in virtual seconds.
  double backoff_base = 500e-6;
  /// Multiplier applied per further attempt (exponential backoff).
  double backoff_factor = 2.0;
  /// Ceiling on a single delay, in virtual seconds.
  double backoff_max = 0.1;
  /// Read back the landed prefix of a retryable short write and compare it
  /// against the source buffer before resuming (mpi::io::File only).
  bool verify_short_writes = true;
  /// Record every backoff delay in RetryStats::delay_log (tests).
  bool log_delays = false;

  bool enabled() const { return max_retries > 0; }
};

/// Backoff delay before re-attempt `attempt` (0-based), capped at
/// backoff_max.  Pure: monotone non-decreasing in `attempt` for any policy
/// with backoff_factor >= 1 — the property the retry tests pin down.
double backoff_delay(const RetryPolicy& policy, int attempt);

/// One logged backoff: which transfer (RetryStats::transfers serial) and
/// how long it slept on the virtual clock.
struct RetryDelay {
  std::uint64_t op = 0;
  double seconds = 0.0;
};

/// Counters a retrying layer accumulates.  transfer() keeps all but the
/// short-transfer and verification counts, which mpi::io::File keeps; a
/// failed attempt is one that threw TransientIoError or moved nothing.
struct RetryStats {
  std::uint64_t transfers = 0;            ///< transfer() calls
  std::uint64_t retries = 0;              ///< re-attempts performed
  std::uint64_t transient_errors = 0;     ///< failed attempts
  std::uint64_t short_writes = 0;         ///< writes that landed short
  std::uint64_t short_reads = 0;          ///< reads that returned short
  std::uint64_t write_verifications = 0;  ///< short-write read-back checks
  double backoff_seconds = 0.0;           ///< total virtual backoff slept
  std::vector<RetryDelay> delay_log;      ///< filled when log_delays is set
};

namespace detail {
/// A failed attempt of transfer `serial`: counts it and, while `*tries` is
/// below the budget, backs off on the current proc and returns true.
bool retry_after_failure(const RetryPolicy& policy, RetryStats& stats,
                         int* tries, std::uint64_t serial);
}  // namespace detail

/// The retry loop: calls `attempt(done)`, which moves bytes from offset
/// `done` of the transfer on and returns how many, until `len` bytes have
/// moved (see the rule above).  Returns the bytes moved.
template <class Attempt>
std::uint64_t transfer(const RetryPolicy& policy, RetryStats& stats,
                       std::uint64_t len, Attempt&& attempt) {
  const std::uint64_t serial = stats.transfers++;
  std::uint64_t done = 0;
  int tries = 0;
  for (;;) {
    std::uint64_t got = 0;
    try {
      got = attempt(done);
    } catch (const TransientIoError&) {
      if (!detail::retry_after_failure(policy, stats, &tries, serial)) throw;
      continue;
    }
    done += got;
    if (done >= len) return done;
    if (got == 0 &&
        !detail::retry_after_failure(policy, stats, &tries, serial)) {
      throw TransientIoError("transfer stalled at byte " +
                             std::to_string(done) + " of " +
                             std::to_string(len) + " after " +
                             std::to_string(policy.max_retries) +
                             " retries");
    }
  }
}

/// Compact rendering for the hints key ("r4,b0.0005,f2,m0.1"); "r0" when
/// retrying is disabled.
std::string retry_key(const RetryPolicy& policy);

}  // namespace paramrio::fault
