// I/O correctness analyzer.
//
// The paper's method (Section 3) is instrument-then-analyze: collect
// per-request traces and mine them for the pathologies behind Figures 6-9.
// trace::IoTracer answers the *performance* questions (request sizes,
// sequentiality); this module answers the *correctness* ones: did the dump
// the backend just wrote actually land intact?  It consumes a trace::IoEvent
// stream (data requests plus the descriptor-lifecycle events a widened
// pfs::IoObserver now reports) and, optionally, the final stor::ObjectStore
// contents, and emits typed diagnostics:
//
//   * write-write conflicts — byte ranges written by two different ranks in
//     the same dump phase (MPI-IO consistency semantics make this an error
//     regardless of the data written),
//   * holes — gaps inside a file's final extent that no traced write
//     covered: an incomplete / truncated checkpoint,
//   * read-before-write — restart reads touching bytes never written since
//     the file was created: the restart consumed garbage (zero-fill),
//   * alignment lints — requests smaller than the stripe unit or straddling
//     stripe boundaries (the Figure-7 small-strided-chunk pathology),
//   * descriptor lifecycle — fd leaks, double closes, writes through
//     read-only descriptors, requests on unknown descriptors.
//
// Each diagnostic carries severity, kind, rank(s), file, byte range and a
// one-line explanation; CheckReport::format() renders the audit like the
// paper's Section-3 tables.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "pfs/filesystem.hpp"
#include "stor/object_store.hpp"
#include "trace/io_tracer.hpp"

namespace paramrio::check {

enum class Severity : std::uint8_t { kError, kWarning, kLint };

enum class Kind : std::uint8_t {
  kWriteConflict,     ///< same-phase overlapping writes from two ranks
  kHole,              ///< unwritten gap inside a file's final extent
  kPaddingGap,        ///< small aligned interior gap (format padding)
  kReadBeforeWrite,   ///< read of bytes never written since creation
  kSmallRequest,      ///< data request smaller than the stripe unit
  kUnalignedRequest,  ///< unaligned request straddling a stripe boundary
  kFdLeak,            ///< descriptor never closed by end of trace
  kDoubleClose,       ///< close of an already-closed descriptor
  kWriteReadOnly,     ///< write through a read-only descriptor
  kUnknownFd,         ///< data request on a closed descriptor
};

const char* to_string(Severity severity);
const char* to_string(Kind kind);

/// The built-in severity of each diagnostic kind (alignment kinds are lints,
/// fd leaks warnings, everything else errors).
Severity severity_of(Kind kind);

struct Diagnostic {
  Severity severity = Severity::kError;
  Kind kind = Kind::kWriteConflict;
  std::string path;
  std::string phase;        ///< phase name ("" when unphased)
  std::vector<int> ranks;   ///< rank(s) involved, ascending
  std::uint64_t offset = 0; ///< start of the offending byte range
  std::uint64_t length = 0; ///< length of the offending byte range (0: n/a)
  std::string message;      ///< one-line explanation

  std::string format() const;
};

struct CheckOptions {
  /// Report label, e.g. the backend under audit ("mpiio on gpfs").
  std::string label = "trace";
  /// Stripe unit of the underlying file system; > 0 enables the alignment
  /// lints (use pfs::StripedFsParams::stripe_size).
  std::uint64_t stripe_size = 0;
  /// When > 0, interior gaps shorter than this whose end sits on an 8-byte
  /// boundary are classified as kPaddingGap lints instead of kHole errors:
  /// self-describing formats (netCDF data_alignment, HDF alignment hints)
  /// leave deliberate unwritten padding between header and data regions.
  /// Tail gaps (file longer than the furthest write) are always holes.
  /// Default 0: strict mode, every gap is a hole.
  std::uint64_t padding_alignment = 0;
  /// At most this many diagnostics of each kind are materialised (counts in
  /// CheckReport::counts stay exact); keeps pathological traces readable.
  std::uint64_t max_diagnostics_per_kind = 16;
};

struct CheckReport {
  std::string label;
  std::vector<Diagnostic> diagnostics;      ///< capped per kind, in order
  std::map<Kind, std::uint64_t> counts;     ///< exact count per kind
  std::uint64_t events_analyzed = 0;
  std::uint64_t data_requests = 0;

  std::uint64_t count(Kind kind) const;
  std::uint64_t errors() const;
  std::uint64_t warnings() const;
  std::uint64_t lints() const;
  /// No errors and no warnings (lints are advisory).
  bool clean() const { return errors() == 0 && warnings() == 0; }

  /// Section-3-style audit table.
  std::string format() const;
};

/// Phase marks are recorded by the tracer the checker derives from.
using trace::PhaseMark;

/// Analyze a raw event stream.  `store`, when given, supplies final file
/// extents so hole detection covers short (truncated) files; without it the
/// extent is the furthest traced write.  Only files the trace saw created
/// (open with OpenMode::kCreate) are checked for holes and read-before-write
/// — pre-existing files have unknown prior contents.
CheckReport analyze_trace(std::span<const trace::IoEvent> events,
                          const CheckOptions& options,
                          const stor::ObjectStore* store = nullptr,
                          std::span<const PhaseMark> phases = {});

/// A tracer that also audits what it recorded: attach with
/// fs.attach_observer(&checker); call begin_phase() around dump / restart
/// sections; then analyze(&fs.store()).  The tracer's format_report() and
/// export_counters() describe the same log, so one observer gives both the
/// performance report and the audit.
class IoChecker final : public trace::IoTracer {
 public:
  explicit IoChecker(CheckOptions options = {});

  CheckOptions& options() { return options_; }

  /// The audit.  (It hides the tracer's analyze(), which format_report()
  /// and export_counters() still use.)
  CheckReport analyze(const stor::ObjectStore* store = nullptr) const;

 private:
  CheckOptions options_;
};

}  // namespace paramrio::check
