#include "fault/retry.hpp"

#include <algorithm>
#include <sstream>

#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace paramrio::fault {

double backoff_delay(const RetryPolicy& policy, int attempt) {
  double d = policy.backoff_base;
  for (int i = 0; i < attempt; ++i) {
    d *= policy.backoff_factor;
    if (d >= policy.backoff_max) break;
  }
  return std::clamp(d, 0.0, policy.backoff_max);
}

bool detail::retry_after_failure(const RetryPolicy& policy,
                                 RetryStats& stats, int* tries,
                                 std::uint64_t serial) {
  stats.transient_errors += 1;
  if (*tries >= policy.max_retries) return false;
  const double delay = backoff_delay(policy, (*tries)++);
  stats.retries += 1;
  stats.backoff_seconds += delay;
  if (policy.log_delays) stats.delay_log.push_back({serial, delay});
  sim::Proc& proc = sim::current_proc();
  obs::record_wait(obs::WaitKind::kRetryBackoff, proc.now(),
                   proc.now() + delay);
  proc.advance(delay, sim::TimeCategory::kIo);
  return true;
}

std::string retry_key(const RetryPolicy& policy) {
  if (!policy.enabled()) return "r0";
  std::ostringstream os;
  os << "r" << policy.max_retries << ",b" << policy.backoff_base << ",f"
     << policy.backoff_factor << ",m" << policy.backoff_max << ",v"
     << (policy.verify_short_writes ? 1 : 0);
  return os.str();
}

}  // namespace paramrio::fault
