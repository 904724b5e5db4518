// Helpers shared by the golden tests, which pin clocks bit for bit across
// commits.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace paramrio::testutil {

/// Unsets PARAMRIO_SCHED_SEED for the scope, restoring the outer value.
/// Schedule independence is the differentials' job; a golden pins one
/// schedule, the unperturbed one.
class ScopedNoSchedSeed {
 public:
  ScopedNoSchedSeed() {
    if (const char* v = std::getenv("PARAMRIO_SCHED_SEED")) saved_ = v;
    ::unsetenv("PARAMRIO_SCHED_SEED");
  }
  ~ScopedNoSchedSeed() {
    if (saved_) ::setenv("PARAMRIO_SCHED_SEED", saved_->c_str(), 1);
  }
  ScopedNoSchedSeed(const ScopedNoSchedSeed&) = delete;
  ScopedNoSchedSeed& operator=(const ScopedNoSchedSeed&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The IEEE-754 bit pattern of `v`, so clocks compare exactly.
inline std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace paramrio::testutil
