#include "check/io_checker.hpp"

#include <algorithm>
#include <sstream>

#include "base/run_map.hpp"

namespace paramrio::check {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kLint: return "lint";
  }
  return "?";
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kWriteConflict: return "write-conflict";
    case Kind::kHole: return "hole";
    case Kind::kPaddingGap: return "padding-gap";
    case Kind::kReadBeforeWrite: return "read-before-write";
    case Kind::kSmallRequest: return "small-request";
    case Kind::kUnalignedRequest: return "unaligned-request";
    case Kind::kFdLeak: return "fd-leak";
    case Kind::kDoubleClose: return "double-close";
    case Kind::kWriteReadOnly: return "write-read-only";
    case Kind::kUnknownFd: return "unknown-fd";
  }
  return "?";
}

Severity severity_of(Kind kind) {
  switch (kind) {
    case Kind::kSmallRequest:
    case Kind::kUnalignedRequest:
    case Kind::kPaddingGap:
      return Severity::kLint;
    case Kind::kFdLeak:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << "[" << to_string(severity) << "] " << to_string(kind) << " " << path;
  if (length > 0) {
    os << " [" << offset << ", " << offset + length << ")";
  }
  if (!ranks.empty()) {
    os << " rank";
    if (ranks.size() > 1) os << "s";
    os << " ";
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (i > 0) os << ",";
      os << ranks[i];
    }
  }
  if (!phase.empty()) os << " phase '" << phase << "'";
  os << ": " << message;
  return os.str();
}

std::uint64_t CheckReport::count(Kind kind) const {
  auto it = counts.find(kind);
  return it == counts.end() ? 0 : it->second;
}

namespace {
constexpr Kind kAllKinds[] = {
    Kind::kWriteConflict,  Kind::kHole,        Kind::kPaddingGap,
    Kind::kReadBeforeWrite,
    Kind::kSmallRequest,   Kind::kUnalignedRequest,
    Kind::kFdLeak,         Kind::kDoubleClose, Kind::kWriteReadOnly,
    Kind::kUnknownFd,
};

std::uint64_t count_severity(const CheckReport& r, Severity severity) {
  std::uint64_t n = 0;
  for (Kind k : kAllKinds) {
    if (severity_of(k) == severity) n += r.count(k);
  }
  return n;
}
}  // namespace

std::uint64_t CheckReport::errors() const {
  return count_severity(*this, Severity::kError);
}
std::uint64_t CheckReport::warnings() const {
  return count_severity(*this, Severity::kWarning);
}
std::uint64_t CheckReport::lints() const {
  return count_severity(*this, Severity::kLint);
}

std::string CheckReport::format() const {
  std::ostringstream os;
  os << "I/O correctness audit — " << label << "\n";
  os << "  events analyzed: " << events_analyzed << " (" << data_requests
     << " data requests)\n";
  for (Kind k : kAllKinds) {
    std::uint64_t n = count(k);
    os << "  " << to_string(k);
    for (std::size_t pad = std::string(to_string(k)).size(); pad < 18; ++pad) {
      os << ' ';
    }
    os << n;
    if (n > 0) os << "  (" << to_string(severity_of(k)) << ")";
    os << "\n";
  }
  os << "  verdict: " << (clean() ? "CLEAN" : "NOT CLEAN") << " ("
     << errors() << " errors, " << warnings() << " warnings, " << lints()
     << " lints)\n";
  if (!diagnostics.empty()) {
    os << "  diagnostics";
    std::uint64_t total = 0;
    for (const auto& [k, n] : counts) total += n;
    if (total > diagnostics.size()) {
      os << " (first " << diagnostics.size() << " of " << total << ")";
    }
    os << ":\n";
    for (const Diagnostic& d : diagnostics) {
      os << "    " << d.format() << "\n";
    }
  }
  return os.str();
}

namespace {

struct FileState {
  bool created = false;  ///< trace saw an OpenMode::kCreate for this path
  RunMap<bool> written;  ///< union of writes since creation
  RunMap<int> owners;    ///< current-phase writing rank per range
};

struct FdState {
  std::string path;
  bool writable = false;
  int open_rank = -1;
  bool closed = false;
  /// First seen mid-trace (no open event) — opened before tracing started,
  /// so writability is unknown and leak reporting would be guesswork.
  bool implicit = false;
};

class Analyzer {
 public:
  Analyzer(const CheckOptions& options, const stor::ObjectStore* store)
      : options_(options), store_(store) {
    report_.label = options.label;
  }

  CheckReport run(std::span<const trace::IoEvent> events,
                  std::span<const PhaseMark> phases) {
    std::size_t next_phase = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (next_phase < phases.size() &&
             phases[next_phase].first_event <= i) {
        start_phase(phases[next_phase].name);
        ++next_phase;
      }
      step(events[i]);
    }
    finish();
    report_.events_analyzed = events.size();
    return std::move(report_);
  }

 private:
  void start_phase(const std::string& name) {
    phase_ = name;
    // Conflicts are scoped per phase: a restart overwriting the previous
    // dump's bytes is a new generation, not a race.
    for (auto& [path, fs] : files_) fs.owners = {};
  }

  void emit(Kind kind, const std::string& path, std::vector<int> ranks,
            std::uint64_t offset, std::uint64_t length,
            const std::string& message) {
    std::uint64_t& n = report_.counts[kind];
    n += 1;
    if (n > options_.max_diagnostics_per_kind) return;
    Diagnostic d;
    d.severity = severity_of(kind);
    d.kind = kind;
    d.path = path;
    d.phase = phase_;
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    d.ranks = std::move(ranks);
    d.offset = offset;
    d.length = length;
    d.message = message;
    report_.diagnostics.push_back(std::move(d));
  }

  void step(const trace::IoEvent& e) {
    switch (e.op) {
      case trace::IoOp::kOpen: return step_open(e);
      case trace::IoOp::kClose: return step_close(e);
      case trace::IoOp::kRead:
      case trace::IoOp::kWrite: return step_data(e);
    }
  }

  void step_open(const trace::IoEvent& e) {
    if (e.fd >= 0) {
      FdState st;
      st.path = e.path;
      st.writable = e.mode != pfs::OpenMode::kRead;
      st.open_rank = e.rank;
      fds_[e.fd] = st;
    }
    if (e.mode == pfs::OpenMode::kCreate) {
      FileState& f = files_[e.path];
      f.created = true;
      // Truncation starts a new file generation.
      f.written = {};
      f.owners = {};
    }
  }

  void step_close(const trace::IoEvent& e) {
    if (e.fd < 0) return;
    auto it = fds_.find(e.fd);
    if (it == fds_.end()) {
      // Descriptor opened before tracing started: record it closed so a
      // later use is still flagged, but the close itself is legitimate.
      FdState& st = fds_[e.fd];
      st.path = e.path;
      st.open_rank = e.rank;
      st.implicit = true;
      st.closed = true;
      return;
    }
    if (it->second.closed) {
      emit(Kind::kDoubleClose, e.path, {e.rank}, 0, 0,
           "close of fd " + std::to_string(e.fd) +
               " that was already closed");
      return;
    }
    it->second.closed = true;
  }

  void step_data(const trace::IoEvent& e) {
    report_.data_requests += 1;
    check_fd(e);
    check_alignment(e);
    if (e.bytes == 0) return;
    FileState& f = files_[e.path];
    const std::uint64_t end = e.offset + e.bytes;
    if (e.is_write) {
      check_conflict(f, e);
      f.written.assign(e.offset, end, true);
    } else if (f.created) {
      // The first unwritten sub-range: from the end of the written prefix
      // to the next written run, or to the end of the read.
      std::uint64_t gap_lo = e.offset;
      std::uint64_t gap_hi = end;
      f.written.for_each(e.offset, end,
                         [&](std::uint64_t lo, std::uint64_t hi, bool) {
                           if (lo == gap_lo) {
                             gap_lo = hi;
                           } else if (gap_hi == end) {
                             gap_hi = lo;
                           }
                         });
      if (gap_lo < gap_hi) {
        emit(Kind::kReadBeforeWrite, e.path, {e.rank}, gap_lo,
             gap_hi - gap_lo,
             "read touches bytes never written since the file was created "
             "(restart would consume zero-fill)");
      }
    }
  }

  void check_fd(const trace::IoEvent& e) {
    if (e.fd < 0) return;  // hand-built trace without descriptors
    auto it = fds_.find(e.fd);
    if (it == fds_.end()) {
      // First use of a descriptor opened before tracing started: adopt it
      // with unknown (assumed-writable) mode rather than crying wolf.
      FdState& st = fds_[e.fd];
      st.path = e.path;
      st.writable = true;
      st.open_rank = e.rank;
      st.implicit = true;
      return;
    }
    if (it->second.closed) {
      emit(Kind::kUnknownFd, e.path, {e.rank}, e.offset, e.bytes,
           "data request on fd " + std::to_string(e.fd) + " after close");
      return;
    }
    if (e.is_write && !it->second.writable) {
      emit(Kind::kWriteReadOnly, e.path, {e.rank}, e.offset, e.bytes,
           "write through read-only fd " + std::to_string(e.fd));
    }
  }

  void check_alignment(const trace::IoEvent& e) {
    std::uint64_t stripe = options_.stripe_size;
    if (stripe == 0 || e.bytes == 0) return;
    if (e.bytes < stripe) {
      emit(Kind::kSmallRequest, e.path, {e.rank}, e.offset, e.bytes,
           "request smaller than the " + std::to_string(stripe) +
               "-byte stripe unit pays full per-request server cost");
    }
    std::uint64_t first_stripe = e.offset / stripe;
    std::uint64_t last_stripe = (e.offset + e.bytes - 1) / stripe;
    if (e.offset % stripe != 0 && last_stripe > first_stripe) {
      emit(Kind::kUnalignedRequest, e.path, {e.rank}, e.offset, e.bytes,
           "unaligned request straddles a stripe boundary (touches " +
               std::to_string(last_stripe - first_stripe + 1) +
               " stripes, read-modify-write on the edges)");
    }
  }

  /// Report every range another rank wrote this phase, one diagnostic per
  /// maximal run of one rank; then this rank owns [lo, hi).
  void check_conflict(FileState& f, const trace::IoEvent& e) {
    const std::uint64_t lo = e.offset, hi = e.offset + e.bytes;
    f.owners.for_each(lo, hi, [&](std::uint64_t clo, std::uint64_t chi,
                                  int orank) {
      if (orank == e.rank) return;
      emit(Kind::kWriteConflict, e.path, {orank, e.rank}, clo, chi - clo,
           "ranks " + std::to_string(orank) + " and " +
               std::to_string(e.rank) +
               " both wrote this range in the same phase (unordered "
               "overlapping writes: final bytes depend on timing)");
    });
    f.owners.assign(lo, hi, e.rank);
  }

  void finish() {
    // Descriptor leaks (implicit fds predate the trace; their lifetime is
    // not ours to judge).
    for (const auto& [fd, st] : fds_) {
      if (st.closed || st.implicit) continue;
      emit(Kind::kFdLeak, st.path, {st.open_rank}, 0, 0,
           "fd " + std::to_string(fd) + " still open at end of trace");
    }
    // Holes: compare each created file's written union against its final
    // extent.  The store (when given) supplies the authoritative extent so a
    // file longer than its furthest traced write — e.g. truncated metadata —
    // is caught too.
    for (const auto& [path, f] : files_) {
      if (!f.created) continue;  // pre-existing contents unknown
      if (store_ != nullptr && !store_->exists(path)) continue;  // removed
      // Without the store the extent is the furthest traced write, so every
      // gap is interior.
      constexpr std::uint64_t kNoEnd = ~std::uint64_t{0};
      const std::uint64_t extent =
          store_ != nullptr ? store_->size(path) : kNoEnd;
      std::uint64_t pos = 0;
      f.written.for_each(0, kNoEnd, [&](std::uint64_t lo, std::uint64_t hi,
                                        bool) {
        if (lo > pos && pos < extent) {
          std::uint64_t ghi = std::min(lo, extent);
          // Self-describing formats leave deliberate unwritten padding
          // between header and aligned data regions (netCDF
          // data_alignment); a short gap ending on an 8-byte boundary is a
          // padding lint, not a torn checkpoint.
          bool padding = options_.padding_alignment > 0 &&
                         ghi - pos < options_.padding_alignment &&
                         ghi % 8 == 0;
          if (padding) {
            emit(Kind::kPaddingGap, path, {}, pos, ghi - pos,
                 "unwritten aligned gap (format padding between header and "
                 "data regions)");
          } else {
            emit(Kind::kHole, path, {}, pos, ghi - pos,
                 "no write ever covered this range inside the file's extent "
                 "(incomplete checkpoint)");
          }
        }
        pos = hi;
      });
      if (store_ != nullptr && pos < extent) {
        emit(Kind::kHole, path, {}, pos, extent - pos,
             "file extends past the furthest traced write "
             "(truncated/short dump)");
      }
    }
  }

  CheckOptions options_;
  const stor::ObjectStore* store_;
  CheckReport report_;
  std::string phase_;
  std::map<std::string, FileState> files_;
  std::map<int, FdState> fds_;
};

}  // namespace

CheckReport analyze_trace(std::span<const trace::IoEvent> events,
                          const CheckOptions& options,
                          const stor::ObjectStore* store,
                          std::span<const PhaseMark> phases) {
  return Analyzer(options, store).run(events, phases);
}

IoChecker::IoChecker(CheckOptions options) : options_(std::move(options)) {}

CheckReport IoChecker::analyze(const stor::ObjectStore* store) const {
  return analyze_trace(events(), options_, store, phases());
}

}  // namespace paramrio::check
