// Shared measurement harness for the per-figure benches: run the ENZO-style
// application on a simulated platform, time the checkpoint write and the
// new-simulation read for a chosen I/O backend, and report byte counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "hdf5/h5_file.hpp"
#include "obs/profiler.hpp"
#include "platform/machine.hpp"
#include "trace/io_tracer.hpp"
#include "verify/verify.hpp"

namespace paramrio::bench {

enum class Backend { kHdf4, kMpiIo, kHdf5, kPnetcdf };

std::string to_string(Backend b);

struct IoResult {
  double write_time = 0.0;  ///< virtual seconds, barrier-to-barrier
  double read_time = 0.0;
  std::uint64_t fs_bytes_written = 0;  ///< bytes the file system moved
  std::uint64_t fs_bytes_read = 0;
  std::uint64_t payload_bytes = 0;     ///< application data per dump
  std::uint64_t grids = 0;             ///< grids in the dumped hierarchy
};

struct RunSpec {
  platform::Machine machine;
  enzo::SimulationConfig config;
  int nprocs = 8;
  Backend backend = Backend::kMpiIo;
  hdf5::FileConfig hdf5_config;  ///< overhead toggles for the HDF5 backend
  mpi::io::Hints hints;          ///< MPI-IO hints (collective buffer etc.)
  int evolve_cycles = 1;         ///< cycles before the dump (moves clumps)

  /// Optional cross-layer profiler: attached for the duration of the run;
  /// the dump sits in a depth-0 "dump" span (the restart read in
  /// "restart_read") and the run's engine / file-system / network / trace
  /// statistics are folded into its registry afterwards.
  obs::Collector* collector = nullptr;
  /// Optional per-request tracer, attached to the testbed file system.
  trace::IoTracer* tracer = nullptr;

  /// Optional fault injector: attached to the testbed's file system and
  /// network for the duration of the run; when a collector is present its
  /// counters are folded into the registry under scope "fault".  Pair with
  /// hints.retry (MPI-IO-based backends) and/or fs_retry (direct-fs paths:
  /// the HDF4 backend, hierarchy files) to measure fault survival.
  fault::Injector* injector = nullptr;
  /// File-system-level retry policy installed on the testbed fs.
  fault::RetryPolicy fs_retry;

  /// Optional MPI-semantics verifier: attached (as both the mpi hook target
  /// and the engine run observer) for the duration of the run.  Inspect
  /// verifier->report() afterwards; when a collector is present the report
  /// is also exported into its registry under scope "verify" (nonzero
  /// counts only, so clean runs stay byte-identical).
  verify::Verifier* verifier = nullptr;
  /// Scheduler tie-shuffle seed (sim::Engine::Options::perturb_seed): 0
  /// keeps the classic lowest-rank order; any nonzero value executes the
  /// run under a different — equally legal — interleaving, for the
  /// schedule-perturbation differential harness.
  std::uint64_t sched_seed = 0;
};

/// Execute: initialise from the universe, evolve, timed checkpoint write,
/// then a timed new-simulation read of that dump into a fresh state.
IoResult run_enzo_io(const RunSpec& spec);

/// Pretty row printer used by the figure benches.
void print_header(const std::string& title, const std::string& note);
void print_row(const std::string& platform, const std::string& size, int p,
               Backend b, const IoResult& r);

/// Machine-readable bench output (one JSON document per bench binary).
///
/// Activated either by `--json <path>` on the bench command line (exact
/// output file) or by the PARAMRIO_BENCH_JSON environment variable naming a
/// directory, in which case the file is `<dir>/BENCH_<name>.json`.  When
/// neither is present the reporter is inert.  The document is written by
/// `write()` or, failing that, the destructor.
class JsonReporter {
 public:
  JsonReporter(std::string bench_name, int argc, char** argv);
  ~JsonReporter();

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Record one measurement row (mirrors print_row).
  void add_row(const std::string& platform, const std::string& size,
               int nprocs, Backend backend, const IoResult& r);
  /// Attach a metrics-registry snapshot to the most recent row.
  void attach_registry(const obs::MetricsRegistry& reg);

  void write();

 private:
  std::string name_;
  std::string path_;
  std::vector<std::string> rows_;  ///< pre-serialised JSON objects
  bool written_ = false;
};

}  // namespace paramrio::bench
