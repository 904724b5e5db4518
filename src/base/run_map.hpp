// RunMap — disjoint half-open byte ranges, each mapped to a value.
//
// The models keep several books of state per byte range: the pages a buffer
// cache holds, the rank that last wrote each range of a node-local file, the
// client holding each GPFS write token, the rank that wrote each range in a
// checker phase.  All are one structure: an assignment overrides whatever it
// overlaps (last writer wins), and a lookup asks who holds a range.
//
// The map stays canonical: runs are never empty, never overlap, and no two
// touching runs hold equal values.  A streaming writer therefore keeps one
// run however many requests it issues, and every operation costs O(log n)
// plus the runs it overlaps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

namespace paramrio {

template <class V>
class RunMap {
 public:
  /// Set [lo, hi) to `v`; the last writer wins.  lo >= hi is a no-op.
  void assign(std::uint64_t lo, std::uint64_t hi, const V& v) {
    if (lo >= hi) return;
    split(lo);
    split(hi);
    auto it = runs_.lower_bound(lo);
    while (it != runs_.end() && it->first < hi) it = runs_.erase(it);
    // `it` is now the first run at or past hi: coalesce equal neighbours.
    std::uint64_t end = hi;
    if (it != runs_.end() && it->first == hi && it->second.value == v) {
      end = it->second.end;
      it = runs_.erase(it);
    }
    if (it != runs_.begin()) {
      auto left = std::prev(it);
      if (left->second.end == lo && left->second.value == v) {
        left->second.end = end;
        return;
      }
    }
    runs_.emplace_hint(it, lo, Run{end, v});
  }

  /// Whether one run holding `v` spans [lo, hi).  An empty range counts as
  /// spanned when lo lies inside such a run or at its end.
  bool covers(std::uint64_t lo, std::uint64_t hi, const V& v) const {
    auto it = runs_.upper_bound(lo);
    if (it == runs_.begin()) return false;
    --it;
    return it->second.end >= hi && it->second.value == v;
  }

  /// Call f(run_lo, run_hi, value) for every run overlapping [lo, hi), in
  /// offset order, with each run clipped to [lo, hi).
  template <class F>
  void for_each(std::uint64_t lo, std::uint64_t hi, F&& f) const {
    if (lo >= hi) return;
    auto it = runs_.upper_bound(lo);
    if (it != runs_.begin() && std::prev(it)->second.end > lo) --it;
    for (; it != runs_.end() && it->first < hi; ++it) {
      f(std::max(it->first, lo), std::min(it->second.end, hi),
        it->second.value);
    }
  }

 private:
  struct Run {
    std::uint64_t end;
    V value;
  };

  /// Cut the run straddling `at`, if any, into [start, at) and [at, end).
  void split(std::uint64_t at) {
    auto it = runs_.upper_bound(at);
    if (it == runs_.begin()) return;
    auto prev = std::prev(it);
    if (prev->second.end <= at || prev->first == at) return;
    runs_.emplace_hint(it, at, prev->second);
    prev->second.end = at;
  }

  std::map<std::uint64_t, Run> runs_;  ///< start -> run
};

}  // namespace paramrio
