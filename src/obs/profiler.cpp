#include "obs/profiler.hpp"

#include <algorithm>

namespace paramrio::obs {

namespace {
// Every proc is a fiber on the thread that calls attach() and detach(), and
// the engine serialises all recording calls, so a plain pointer is enough.
Collector* g_collector = nullptr;
}  // namespace

const char* to_string(TimeCategory cat) {
  switch (cat) {
    case TimeCategory::kCpu:
      return "cpu";
    case TimeCategory::kComm:
      return "comm";
    case TimeCategory::kIo:
      return "io";
  }
  return "?";
}

const char* to_string(WaitKind kind) {
  switch (kind) {
    case WaitKind::kRecvWait:
      return "recv_wait";
    case WaitKind::kServerQueue:
      return "server_queue";
    case WaitKind::kTokenWait:
      return "token_wait";
    case WaitKind::kRetryBackoff:
      return "retry_backoff";
    case WaitKind::kSettleWait:
      return "settle_wait";
    case WaitKind::kDrainWait:
      return "drain_wait";
  }
  return "?";
}

void attach(Collector* c) { g_collector = c; }

void detach() { attach(nullptr); }

Collector* collector() { return g_collector; }

void Collector::begin_span(sim::Proc& proc, const char* name,
                           TimeCategory cat) {
  // Spans are keyed by *global* rank so multi-job runs don't interleave the
  // jobs' rank-0 stacks (identical to rank() in single-job runs).
  auto rank = static_cast<std::size_t>(proc.global_rank());
  if (stacks_.size() <= rank) stacks_.resize(rank + 1);
  SpanRecord rec;
  rec.rank = proc.global_rank();
  rec.depth = static_cast<int>(stacks_[rank].size());
  rec.name = name;
  rec.category = cat;
  rec.async = proc.deferred();
  rec.t_start = proc.now();
  const sim::ProcStats& s = proc.stats();
  rec.cpu_dt = s.cpu_time;    // entry snapshot; converted to delta at end
  rec.comm_dt = s.comm_time;
  rec.io_dt = s.io_time;
  stacks_[rank].push_back(std::move(rec));
}

void Collector::end_span(sim::Proc& proc) {
  auto rank = static_cast<std::size_t>(proc.global_rank());
  PARAMRIO_REQUIRE(rank < stacks_.size() && !stacks_[rank].empty(),
                   "obs: end_span with no open span on rank " +
                       std::to_string(proc.global_rank()));
  SpanRecord rec = std::move(stacks_[rank].back());
  stacks_[rank].pop_back();
  rec.t_end = proc.now();
  const sim::ProcStats& s = proc.stats();
  rec.cpu_dt = s.cpu_time - rec.cpu_dt;
  rec.comm_dt = s.comm_time - rec.comm_dt;
  rec.io_dt = s.io_time - rec.io_dt;
  spans_.push_back(std::move(rec));
}

void Collector::span_counter(sim::Proc& proc, const char* name,
                             std::uint64_t value) {
  auto rank = static_cast<std::size_t>(proc.global_rank());
  if (rank >= stacks_.size() || stacks_[rank].empty()) return;
  auto& counters = stacks_[rank].back().counters;
  for (auto& [n, v] : counters) {
    if (n == name) {
      v += value;
      return;
    }
  }
  counters.emplace_back(name, value);
}

void Collector::sample(sim::Proc& proc, const char* name, double value) {
  samples_.push_back(
      CounterSample{proc.global_rank(), proc.now(), name, value});
}

void Collector::gauge(const std::string& track, double time, double value,
                      bool integer) {
  if (!detail_) return;
  timeline_.record(track, time, value, integer);
}

void Collector::latency(const std::string& name, double seconds) {
  if (!detail_) return;
  histograms_[name].record(seconds);
}

void Collector::record_wait(sim::Proc& proc, WaitKind kind, double t_start,
                            double t_end) {
  // Deferred (shadow-clock) intervals never charged the real clock, so
  // there is no span time to re-attribute; recording them would make the
  // blame engine subtract from io_dt that never accrued.
  if (!detail_ || proc.deferred() || !(t_end > t_start)) return;
  waits_.push_back(WaitRecord{proc.global_rank(), kind, t_start, t_end});
}

void Collector::export_detail() {
  for (const auto& [name, hist] : histograms_) {
    hist.export_to(registry_, "hist:" + name);
  }
  for (const auto& [name, track] : timeline_.tracks()) {
    if (track.points.empty()) continue;
    const std::string scope = "timeline:" + name;
    registry_.set(scope, "samples",
                  static_cast<std::uint64_t>(track.points.size()));
    double peak = track.points.front().value;
    for (const Timeline::Point& p : track.points) {
      peak = std::max(peak, p.value);
    }
    if (track.integer) {
      registry_.set(scope, "peak", static_cast<std::uint64_t>(peak));
    } else {
      registry_.set_value(scope, "peak", peak);
    }
  }
}

bool Collector::balanced() const {
  for (const auto& st : stacks_) {
    if (!st.empty()) return false;
  }
  return true;
}

std::vector<std::string> Collector::open_spans(int rank) const {
  std::vector<std::string> names;
  auto r = static_cast<std::size_t>(rank);
  if (r >= stacks_.size()) return names;
  names.reserve(stacks_[r].size());
  for (const SpanRecord& rec : stacks_[r]) names.push_back(rec.name);
  return names;
}

void Collector::clear_events() {
  stacks_.clear();
  spans_.clear();
  samples_.clear();
}

void span_counter(const char* name, std::uint64_t value) {
  Collector* c = collector();
  if (c != nullptr && sim::in_simulation()) {
    c->span_counter(sim::current_proc(), name, value);
  }
}

void counter_sample(const char* name, double value) {
  Collector* c = collector();
  if (c != nullptr && sim::in_simulation()) {
    c->sample(sim::current_proc(), name, value);
  }
}

bool detail() {
  Collector* c = collector();
  return c != nullptr && c->detail() && sim::in_simulation();
}

void gauge(const std::string& track, double value) {
  Collector* c = collector();
  if (c != nullptr && c->detail() && sim::in_simulation()) {
    c->gauge(track, sim::current_proc().now(), value, /*integer=*/false);
  }
}

void gauge_int(const std::string& track, std::uint64_t value) {
  Collector* c = collector();
  if (c != nullptr && c->detail() && sim::in_simulation()) {
    c->gauge(track, sim::current_proc().now(), static_cast<double>(value),
             /*integer=*/true);
  }
}

void latency_sample(const std::string& name, double seconds) {
  Collector* c = collector();
  if (c != nullptr && c->detail() && sim::in_simulation()) {
    c->latency(name, seconds);
  }
}

void record_wait(WaitKind kind, double t_start, double t_end) {
  Collector* c = collector();
  if (c != nullptr && c->detail() && sim::in_simulation()) {
    c->record_wait(sim::current_proc(), kind, t_start, t_end);
  }
}

void settle_to(double t, WaitKind kind) {
  if (!sim::in_simulation()) return;
  sim::Proc& proc = sim::current_proc();
  if (t <= proc.now()) return;
  record_wait(kind, proc.now(), t);
  proc.clock_at_least(t, sim::TimeCategory::kIo);
}

}  // namespace paramrio::obs
