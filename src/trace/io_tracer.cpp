#include "trace/io_tracer.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/registry.hpp"

namespace paramrio::trace {

void IoTracer::record(double time, int rank, bool is_write,
                      const std::string& path, std::uint64_t offset,
                      std::uint64_t bytes, int fd) {
  IoEvent e;
  e.time = time;
  e.rank = rank;
  e.is_write = is_write;
  e.op = is_write ? IoOp::kWrite : IoOp::kRead;
  e.path = path;
  e.offset = offset;
  e.bytes = bytes;
  e.fd = fd;
  events_.push_back(std::move(e));
}

void IoTracer::record_open(double time, int rank, const std::string& path,
                           pfs::OpenMode mode, int fd) {
  IoEvent e;
  e.time = time;
  e.rank = rank;
  e.op = IoOp::kOpen;
  e.path = path;
  e.fd = fd;
  e.mode = mode;
  events_.push_back(std::move(e));
}

void IoTracer::record_close(double time, int rank, const std::string& path,
                            int fd) {
  IoEvent e;
  e.time = time;
  e.rank = rank;
  e.op = IoOp::kClose;
  e.path = path;
  e.fd = fd;
  events_.push_back(std::move(e));
}

void IoTracer::begin_phase(const std::string& name) {
  phases_.push_back(PhaseMark{events_.size(), name});
}

void IoTracer::clear() {
  events_.clear();
  phases_.clear();
}

namespace {
std::size_t size_bucket(std::uint64_t bytes) {
  std::size_t b = 0;
  while (bytes > 1 && b < 32) {
    bytes >>= 1;
    ++b;
  }
  return b;
}
}  // namespace

TraceReport IoTracer::analyze() const {
  TraceReport r;
  std::set<std::string> files;
  std::set<int> ranks;
  // Previous request end per (rank, path, direction) for sequentiality.
  std::map<std::tuple<int, std::string, bool>, std::uint64_t> prev_end;
  std::uint64_t seq_reads = 0, seq_writes = 0;

  bool first = true;
  for (const IoEvent& e : events_) {
    files.insert(e.path);
    ranks.insert(e.rank);
    if (first) {
      r.first_time = e.time;
      first = false;
    }
    r.last_time = std::max(r.last_time, e.time);
    if (e.op == IoOp::kOpen) {
      r.opens += 1;
      continue;
    }
    if (e.op == IoOp::kClose) {
      r.closes += 1;
      continue;
    }
    DirectionStats& d = e.is_write ? r.writes : r.reads;
    d.requests += 1;
    d.bytes += e.bytes;
    d.min_request = d.requests == 1 ? e.bytes : std::min(d.min_request, e.bytes);
    d.max_request = std::max(d.max_request, e.bytes);
    d.size_histogram[size_bucket(e.bytes)] += 1;
    r.per_file_bytes[e.path] += e.bytes;

    auto key = std::make_tuple(e.rank, e.path, e.is_write);
    auto it = prev_end.find(key);
    if (it != prev_end.end() && it->second == e.offset) {
      (e.is_write ? seq_writes : seq_reads) += 1;
    }
    prev_end[key] = e.offset + e.bytes;
  }
  if (r.reads.requests > 0) {
    r.reads.sequential_fraction =
        static_cast<double>(seq_reads) / static_cast<double>(r.reads.requests);
  }
  if (r.writes.requests > 0) {
    r.writes.sequential_fraction = static_cast<double>(seq_writes) /
                                   static_cast<double>(r.writes.requests);
  }
  r.files_touched = files.size();
  r.ranks_active = ranks.size();
  return r;
}

namespace {
void format_direction(std::ostringstream& os, const char* name,
                      const DirectionStats& d) {
  os << "  " << name << ": " << d.requests << " requests, "
     << static_cast<double>(d.bytes) / 1.0e6 << " MB";
  if (d.requests > 0) {
    os << " (mean " << d.mean_request() / 1024.0 << " KiB, min "
       << d.min_request << " B, max " << d.max_request / 1024 << " KiB, "
       << d.sequential_fraction * 100.0 << "% sequential)";
  }
  os << "\n";
  if (d.requests > 0) {
    os << "    size histogram:";
    for (std::size_t b = 0; b < d.size_histogram.size(); ++b) {
      if (d.size_histogram[b] == 0) continue;
      os << " [" << (1ull << b) << "B:" << d.size_histogram[b] << "]";
    }
    os << "\n";
  }
}
}  // namespace

std::string IoTracer::format_report(const std::string& title) const {
  TraceReport r = analyze();
  std::ostringstream os;
  os << "I/O trace — " << title << "\n";
  os << "  span: " << r.first_time << " .. " << r.last_time
     << " virtual s, " << r.ranks_active << " ranks, " << r.files_touched
     << " files\n";
  if (r.opens > 0 || r.closes > 0) {
    os << "  metadata: " << r.opens << " opens, " << r.closes << " closes\n";
  }
  format_direction(os, "reads ", r.reads);
  format_direction(os, "writes", r.writes);
  return os.str();
}

namespace {
void export_direction(obs::MetricsRegistry& reg, const std::string& scope,
                      const DirectionStats& d) {
  reg.add(scope, "requests", d.requests);
  reg.add(scope, "bytes", d.bytes);
  reg.observe_max(scope, "max_request", d.max_request);
  reg.set_value(scope, "mean_request", d.mean_request());
  reg.set_value(scope, "sequential_fraction", d.sequential_fraction);
}
}  // namespace

void IoTracer::export_counters(obs::MetricsRegistry& reg) const {
  TraceReport r = analyze();
  export_direction(reg, "trace:read", r.reads);
  export_direction(reg, "trace:write", r.writes);
  reg.add("trace", "opens", r.opens);
  reg.add("trace", "closes", r.closes);
  reg.set("trace", "files_touched", r.files_touched);
  reg.set("trace", "ranks_active", r.ranks_active);
}

}  // namespace paramrio::trace
