// The application's I/O strategy interface and the four implementations
// (backends.hpp):
//
//   * Hdf4SerialBackend  — the original ENZO design: processor 0 gathers the
//     top-grid (fields and globally re-sorted particles) and writes it
//     serially with the HDF4-style library; each processor writes its own
//     subgrids to individual files.
//   * MpiIoBackend       — the paper's optimised design: one shared file,
//     collective two-phase I/O with subarray views for the (Block,Block,
//     Block) baryon fields, parallel sample sort + block-wise non-collective
//     I/O for the irregular particle arrays.
//   * Hdf5ParallelBackend — the same access patterns expressed through the
//     parallel HDF5-analogue (hyperslab selections over MPI-IO), incurring
//     its metadata-synchronisation / alignment / packing / attribute
//     overheads.
//   * PnetcdfBackend     — the same access patterns through the PnetCDF-
//     analogue's one define phase and flat aligned layout (the authors'
//     follow-up design, SC 2003).
//
// All four implement the paper's three I/O categories: reading initial
// grids in a new simulation (every grid partitioned among all processors),
// checkpoint dumps, and restart reads (top-grid partitioned, subgrids read
// round-robin).  They share one dump schema (dump_common.hpp); what differs
// is only how each moves the bytes.
#pragma once

#include <string>

#include "enzo/state.hpp"
#include "mpi/comm.hpp"

namespace paramrio::enzo {

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual std::string name() const = 0;

  /// Checkpoint the state under `base` (collective).
  virtual void write_dump(mpi::Comm& comm, const SimulationState& state,
                          const std::string& base) = 0;

  /// New-simulation read: load the dump at `base`, partitioning every grid
  /// (top-grid and pre-refined subgrids) among all processors.  Fills
  /// `state` (whose config must match the dump's geometry).
  virtual void read_initial(mpi::Comm& comm, SimulationState& state,
                            const std::string& base) = 0;

  /// Restart read: top-grid partitioned as in read_initial; subgrids are
  /// read whole, round-robin across processors.
  virtual void read_restart(mpi::Comm& comm, SimulationState& state,
                            const std::string& base) = 0;
};

}  // namespace paramrio::enzo
