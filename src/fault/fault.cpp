#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"

namespace paramrio::fault {

namespace {

bool is_io_kind(FaultKind k) {
  return k != FaultKind::kMsgDrop && k != FaultKind::kMsgDup;
}

/// FNV-1a over the identifying fields of an operation, so a spec can tell
/// "the same op retried" from "the next op" when bounding consecutive hits.
std::uint64_t site_hash(int rank, bool is_write, const std::string& path,
                        std::uint64_t offset, std::uint64_t bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(rank));
  mix(is_write ? 1 : 0);
  for (char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  mix(offset);
  mix(bytes);
  return h;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortWrite:
      return "short_write";
    case FaultKind::kShortRead:
      return "short_read";
    case FaultKind::kTransientError:
      return "transient_error";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kServerDown:
      return "server_down";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kMsgDrop:
      return "msg_drop";
    case FaultKind::kMsgDup:
      return "msg_dup";
  }
  return "unknown";
}

Injector::Injector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      state_(plan_.specs.size()) {}

bool Injector::io_spec_fires(std::size_t i, const FaultSpec& spec, int rank,
                             double now, bool is_write,
                             const std::string& path, std::uint64_t offset,
                             std::uint64_t bytes, int server) {
  if (!is_io_kind(spec.kind)) return false;
  // A short transfer must move at least one byte and fewer than requested;
  // sub-2-byte ops cannot be shorted.
  if ((spec.kind == FaultKind::kShortWrite ||
       spec.kind == FaultKind::kShortRead) &&
      bytes < 2) {
    return false;
  }
  const bool dir_ok =
      spec.kind == FaultKind::kShortWrite   ? is_write
      : spec.kind == FaultKind::kShortRead ? !is_write
      : (is_write ? spec.match_writes : spec.match_reads);
  if (!dir_ok) return false;
  if (spec.rank >= 0 && spec.rank != rank) return false;
  if (spec.server >= 0 && spec.server != server) return false;
  if (!spec.path_substr.empty() &&
      path.find(spec.path_substr) == std::string::npos) {
    return false;
  }
  if (offset < spec.offset_lo || offset >= spec.offset_hi) return false;
  const std::uint64_t serial = counters_.io_ops;
  if (serial < spec.first_op || serial >= spec.last_op) return false;
  if (now < spec.after_time || now >= spec.until_time) return false;

  SpecState& st = state_[i];
  if (st.fired >= spec.max_faults) return false;
  if (spec.probability < 1.0 && rng_.next_double() >= spec.probability) {
    return false;
  }
  const std::uint64_t site = site_hash(rank, is_write, path, offset, bytes);
  if (st.site == site && st.consecutive >= spec.max_consecutive) {
    // This exact op has been faulted max_consecutive times in a row: let it
    // through once so every transient-failure run stays bounded.
    st.consecutive = 0;
    return false;
  }
  if (st.site == site) {
    st.consecutive += 1;
  } else {
    st.site = site;
    st.consecutive = 1;
  }
  st.fired += 1;
  return true;
}

IoFaultAction Injector::on_io(int rank, double now, bool is_write,
                              const std::string& path, std::uint64_t offset,
                              std::uint64_t bytes, int server) {
  IoFaultAction action;
  if (!enabled_) return action;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (!io_spec_fires(i, spec, rank, now, is_write, path, offset, bytes,
                       server)) {
      continue;
    }
    counters_.injected[static_cast<std::size_t>(spec.kind)] += 1;
    switch (spec.kind) {
      case FaultKind::kShortWrite:
      case FaultKind::kShortRead: {
        action.kind = IoFaultAction::Kind::kShort;
        auto cut = static_cast<std::uint64_t>(
            std::floor(static_cast<double>(bytes) * spec.short_fraction));
        action.transfer = std::clamp<std::uint64_t>(cut, 1, bytes - 1);
        break;
      }
      case FaultKind::kTransientError:
      case FaultKind::kServerDown:
        action.kind = IoFaultAction::Kind::kTransientError;
        break;
      case FaultKind::kStall:
        action.kind = IoFaultAction::Kind::kStall;
        action.stall_seconds = spec.stall_seconds;
        break;
      case FaultKind::kCrash:
        action.kind = IoFaultAction::Kind::kCrash;
        break;
      case FaultKind::kMsgDrop:
      case FaultKind::kMsgDup:
        break;  // unreachable: filtered by io_spec_fires
    }
    break;  // first firing spec wins
  }
  counters_.io_ops += 1;
  return action;
}

bool Injector::degraded(double now) const {
  if (!enabled_) return false;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind == FaultKind::kServerDown && now >= spec.after_time &&
        now < spec.until_time) {
      return true;
    }
  }
  return false;
}

NetFaultAction Injector::on_message(int src_rank, int dst_rank,
                                    std::uint64_t bytes, double now) {
  NetFaultAction action;
  if (!enabled_) {
    return action;
  }
  const std::uint64_t serial = counters_.messages;
  counters_.messages += 1;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind != FaultKind::kMsgDrop && spec.kind != FaultKind::kMsgDup) {
      continue;
    }
    if (spec.rank >= 0 && spec.rank != src_rank) continue;
    if (serial < spec.first_op || serial >= spec.last_op) continue;
    if (now < spec.after_time || now >= spec.until_time) continue;
    SpecState& st = state_[i];
    if (st.fired >= spec.max_faults) continue;
    if (spec.probability < 1.0 && rng_.next_double() >= spec.probability) {
      continue;
    }
    const std::uint64_t site =
        site_hash(src_rank, false, std::string(), // messages have no path
                  static_cast<std::uint64_t>(dst_rank), bytes);
    if (st.site == site && st.consecutive >= spec.max_consecutive) {
      st.consecutive = 0;
      continue;
    }
    if (st.site == site) {
      st.consecutive += 1;
    } else {
      st.site = site;
      st.consecutive = 1;
    }
    st.fired += 1;
    counters_.injected[static_cast<std::size_t>(spec.kind)] += 1;
    action.kind = spec.kind == FaultKind::kMsgDrop
                      ? NetFaultAction::Kind::kDrop
                      : NetFaultAction::Kind::kDuplicate;
    return action;
  }
  return action;
}

void Injector::export_counters(obs::MetricsRegistry& reg,
                               const std::string& scope) const {
  reg.add(scope, "io_ops_seen", counters_.io_ops);
  reg.add(scope, "messages_seen", counters_.messages);
  reg.add(scope, "injected_total", counters_.injected_total());
  for (std::size_t k = 0; k < 8; ++k) {
    reg.add_nonzero(
        scope, std::string("injected_") + to_string(static_cast<FaultKind>(k)),
        counters_.injected[k]);
  }
}

}  // namespace paramrio::fault
