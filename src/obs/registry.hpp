// Unified run-level metrics registry.
//
// Every layer of the stack keeps its own counters (mpi::io::FileStats,
// sim::ProcStats, trace::DirectionStats, GPFS token transfers, network
// message counts) with its own lifetime — FileStats die with the File,
// ProcStats with the Engine run.  The MetricsRegistry is the one place they
// all outlive their producers: a two-level map of
//
//     scope -> counter name -> value
//
// with integer counters (exact) and double-valued gauges (virtual seconds)
// kept separately.  Scopes are plain strings by convention:
//
//     "proc"              aggregated sim::ProcStats across ranks
//     "rank0", "rank1"..  per-rank ProcStats
//     "file:<path>|<hints>"  FileStats persisted at File::close
//     "fs:<name>"         file-system counters (cache hits, GPFS tokens)
//     "net"               interconnect counters
//     "trace:read/write"  IoTracer direction statistics
//
// Both the text and JSON renderings iterate std::maps, so output is
// deterministic — two identical runs serialise byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace paramrio::obs {

class MetricsRegistry {
 public:
  struct Scope {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> values;
  };

  /// Accumulate `delta` into an integer counter (creates it at 0).
  void add(const std::string& scope, const std::string& name,
           std::uint64_t delta);

  /// Export rule for counters that are zero in a clean run (fault
  /// survival, overlap, staging, query extras): add only when `n != 0` /
  /// `v > 0.0`, so a run where nothing fired keeps its registry, and every
  /// export built on it, byte-identical to one built before the counter
  /// existed.
  void add_nonzero(const std::string& scope, const std::string& name,
                   std::uint64_t n);
  void add_value_nonzero(const std::string& scope, const std::string& name,
                         double v);

  /// Overwrite an integer counter.
  void set(const std::string& scope, const std::string& name,
           std::uint64_t value);

  /// Keep the maximum seen (high-water marks).
  void observe_max(const std::string& scope, const std::string& name,
                   std::uint64_t value);

  /// Accumulate into a double-valued gauge (times, fractions).
  void add_value(const std::string& scope, const std::string& name,
                 double delta);

  /// Overwrite a double-valued gauge.
  void set_value(const std::string& scope, const std::string& name,
                 double value);

  /// Read back an integer counter; 0 when absent.
  std::uint64_t get(const std::string& scope, const std::string& name) const;

  /// Read back a gauge; 0.0 when absent.
  double get_value(const std::string& scope, const std::string& name) const;

  bool has_scope(const std::string& scope) const;
  const std::map<std::string, Scope>& scopes() const { return scopes_; }

  void clear() { scopes_.clear(); }

  /// Human-readable dump, one counter per line, sorted.
  std::string format() const;

  /// Deterministic JSON object: {"scope": {"name": value, ...}, ...}.
  /// `indent` spaces of leading indentation per line; 0 emits compact JSON.
  void write_json(std::ostream& os, int indent = 0) const;
  std::string to_json(int indent = 0) const;

 private:
  std::map<std::string, Scope> scopes_;
};

/// Format a double the way every obs exporter does: shortest round-trip-safe
/// decimal via %.17g trimmed through %.*g probing, which is deterministic
/// for a given libc.  Exposed so bench JSON and trace export agree.
std::string format_double(double v);

/// Escape a string for inclusion in a JSON string literal (adds no quotes).
std::string json_escape(const std::string& s);

}  // namespace paramrio::obs
