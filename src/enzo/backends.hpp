// The four concrete I/O strategies: the three the paper compares plus the
// PnetCDF-analogue follow-up.  See io_backend.hpp for the role of each.
#pragma once

#include "enzo/io_backend.hpp"
#include "hdf5/h5_file.hpp"
#include "mpi/io/file.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::enzo {

/// Original ENZO: serial HDF4-style I/O through processor 0 for the
/// top-grid; one file per subgrid written by its owner.
class Hdf4SerialBackend final : public IoBackend {
 public:
  /// `overlap` defers rank 0's top-grid dataset writes on the shadow clock:
  /// the post-gather barrier then releases the other ranks into their
  /// subgrid-file writes while the top-grid file is still flushing.  Off by
  /// default (byte- and time-identical to the serial original).
  explicit Hdf4SerialBackend(pfs::FileSystem& fs, bool overlap = false)
      : fs_(fs), overlap_(overlap) {}
  std::string name() const override { return "hdf4"; }
  void write_dump(mpi::Comm& comm, const SimulationState& state,
                  const std::string& base) override;
  void read_initial(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;
  void read_restart(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;

 private:
  pfs::FileSystem& fs_;
  bool overlap_ = false;
};

/// The paper's optimised MPI-IO port: one shared file, collective two-phase
/// subarray I/O for baryon fields, parallel sort + block-wise non-collective
/// I/O for particles.
class MpiIoBackend final : public IoBackend {
 public:
  MpiIoBackend(pfs::FileSystem& fs, mpi::io::Hints hints = {})
      : fs_(fs), hints_(hints) {}
  std::string name() const override { return "mpi-io"; }
  void write_dump(mpi::Comm& comm, const SimulationState& state,
                  const std::string& base) override;
  void read_initial(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;
  void read_restart(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;

 private:
  pfs::FileSystem& fs_;
  mpi::io::Hints hints_;
};

/// Parallel HDF5 port: the same access patterns expressed as hyperslab
/// selections, paying the library's metadata and packing overheads.
class Hdf5ParallelBackend final : public IoBackend {
 public:
  /// `config` carries the overhead toggles; its comm pointer is ignored
  /// (set per call).
  Hdf5ParallelBackend(pfs::FileSystem& fs, hdf5::FileConfig config = {})
      : fs_(fs), config_(config) {}
  std::string name() const override { return "hdf5"; }
  void write_dump(mpi::Comm& comm, const SimulationState& state,
                  const std::string& base) override;
  void read_initial(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;
  void read_restart(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;

 private:
  pfs::FileSystem& fs_;
  hdf5::FileConfig config_;
};

/// PnetCDF-analogue port — the authors' follow-up design (SC 2003): one
/// define phase, flat aligned layout, attributes in the header.  Same
/// access patterns as MpiIoBackend/Hdf5ParallelBackend, none of the HDF5
/// overheads.  Implemented as the repository's "future work" extension.
class PnetcdfBackend final : public IoBackend {
 public:
  PnetcdfBackend(pfs::FileSystem& fs, mpi::io::Hints hints = {})
      : fs_(fs), hints_(hints) {}
  std::string name() const override { return "pnetcdf"; }
  void write_dump(mpi::Comm& comm, const SimulationState& state,
                  const std::string& base) override;
  void read_initial(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;
  void read_restart(mpi::Comm& comm, SimulationState& state,
                    const std::string& base) override;

 private:
  pfs::FileSystem& fs_;
  mpi::io::Hints hints_;
};

}  // namespace paramrio::enzo
