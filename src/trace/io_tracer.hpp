// I/O tracing and access-pattern analysis.
//
// The paper's method (Section 3, building on the Pablo group's "Analysis of
// I/O Activity of the ENZO Code") is to instrument the application, collect
// per-request traces, and mine them for optimisation metadata: request
// sizes, regular vs irregular patterns, sequentiality, access order.  This
// module reproduces that methodology: an IoTracer attaches to any simulated
// FileSystem, records every data request with its virtual timestamp, and
// produces the summary statistics the paper's analysis rests on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <array>

#include "base/error.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::obs {
class MetricsRegistry;
}  // namespace paramrio::obs

namespace paramrio::trace {

/// What a trace record describes: a data request or a descriptor-lifecycle
/// event (the latter drive check::IoChecker's fd-lifecycle analysis).
enum class IoOp : std::uint8_t { kRead, kWrite, kOpen, kClose };

struct IoEvent {
  double time = 0.0;  ///< virtual time at issue
  int rank = -1;
  bool is_write = false;  ///< data direction (meaningful when is_data())
  IoOp op = IoOp::kRead;
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  int fd = -1;                                ///< descriptor used, -1 unknown
  pfs::OpenMode mode = pfs::OpenMode::kRead;  ///< for kOpen events

  bool is_data() const { return op == IoOp::kRead || op == IoOp::kWrite; }
};

/// Per-direction request statistics.
struct DirectionStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t min_request = 0;
  std::uint64_t max_request = 0;
  double sequential_fraction = 0.0;  ///< adjacent to the same rank's
                                     ///< previous request on the same file
  /// Power-of-two request-size histogram: bucket i counts requests with
  /// 2^i <= size < 2^(i+1) (bucket 0 also holds size 0..1).
  std::array<std::uint64_t, 33> size_histogram{};

  double mean_request() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(bytes) /
                               static_cast<double>(requests);
  }
};

struct TraceReport {
  DirectionStats reads;
  DirectionStats writes;
  std::uint64_t opens = 0;   ///< descriptor-lifecycle events in the trace
  std::uint64_t closes = 0;
  std::uint64_t files_touched = 0;
  std::uint64_t ranks_active = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  /// Per-file byte totals (reads + writes), name -> bytes.
  std::map<std::string, std::uint64_t> per_file_bytes;
};

/// A named phase boundary: events at index >= first_event belong to `name`
/// until the next mark (check::IoChecker scopes write conflicts per phase, so
/// two dumps to the same path do not accuse each other).
struct PhaseMark {
  std::size_t first_event = 0;
  std::string name;
};

/// Records every request and descriptor event of the file system it is
/// attached to; check::IoChecker audits the same log.
class IoTracer : public pfs::IoObserver {
 public:
  /// Record one data request (fd optional for hand-built traces).
  void record(double time, int rank, bool is_write, const std::string& path,
              std::uint64_t offset, std::uint64_t bytes, int fd = -1);

  /// Record descriptor-lifecycle events.
  void record_open(double time, int rank, const std::string& path,
                   pfs::OpenMode mode, int fd);
  void record_close(double time, int rank, const std::string& path, int fd);

  void on_io(double time, int rank, bool is_write, const std::string& path,
             std::uint64_t offset, std::uint64_t bytes, int fd) override {
    record(time, rank, is_write, path, offset, bytes, fd);
  }
  void on_open(double time, int rank, const std::string& path,
               pfs::OpenMode mode, int fd) override {
    record_open(time, rank, path, mode, fd);
  }
  void on_close(double time, int rank, const std::string& path,
                int fd) override {
    record_close(time, rank, path, fd);
  }

  /// Start a named phase; subsequent events belong to it.  Call from one
  /// rank before a barrier so the boundary is unambiguous.
  void begin_phase(const std::string& name);

  /// Drop the recorded events and phase marks.
  void clear();
  const std::vector<IoEvent>& events() const { return events_; }
  const std::vector<PhaseMark>& phases() const { return phases_; }

  TraceReport analyze() const;

  /// Human-readable report (the paper's Section-3-style summary).
  std::string format_report(const std::string& title) const;

  /// Fold the analyzed trace into a metrics registry under the
  /// "trace:read" / "trace:write" scopes.
  void export_counters(obs::MetricsRegistry& reg) const;

 private:
  std::vector<IoEvent> events_;
  std::vector<PhaseMark> phases_;
};

}  // namespace paramrio::trace
