// Calibrated descriptions of the paper's four experimental platforms.
//
// Parameter values are period-plausible (2002 hardware) and were calibrated
// so the *qualitative* results of the paper's Figures 6-10 hold: who wins,
// how gaps move with processor count and problem size.  Absolute seconds are
// not expected to match the original testbeds (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mpi/comm.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"

// The engine has one scheduler (fibers), so this selects nothing.  It
// exists only because bench/ledger/bench_ledger.cpp still passes
// sim::SchedBackend::kFibers to Testbed and is not edited outside a
// benchmark change; the next one deletes the argument, and this with it.
namespace paramrio::sim {
enum class SchedBackend : std::uint8_t { kFibers };
}  // namespace paramrio::sim

namespace paramrio::platform {

enum class FsKind { kLocalXfs, kStriped, kLocalDisk };

struct Machine {
  std::string name;
  net::NetworkParams net;
  mpi::CpuParams cpu;
  FsKind fs_kind = FsKind::kLocalXfs;
  pfs::LocalFsParams local_fs;
  pfs::StripedFsParams striped_fs;
  pfs::LocalDiskFsParams local_disk_fs;

  int extra_fabric_nodes() const {
    return fs_kind == FsKind::kStriped ? striped_fs.n_io_nodes : 0;
  }
};

/// SGI Origin2000 at NCSA: ccNUMA, bristled fat hypercube, XFS scratch.
Machine origin2000_xfs();

/// IBM SP-2 (Power3 SMP nodes) at SDSC: switch fabric, GPFS with large
/// fixed stripes and per-node I/O paths.
Machine sp2_gpfs();

/// Chiba City Linux cluster at ANL: fast Ethernet, PVFS with 8 I/O nodes.
Machine chiba_pvfs_ethernet();

/// Chiba City over its Myrinet fabric: same PVFS servers and disks, but
/// low-latency full-bisection messaging — the read path becomes
/// server-disk-bound instead of wire-bound.
Machine chiba_pvfs_myrinet();

/// Chiba City using each compute node's local disk via the PVFS interface.
Machine chiba_local_disk();

/// A ready-to-run bundle: the mini-MPI runtime (whose fabric the file
/// system may share) plus the machine's file system.
class Testbed {
 public:
  /// `perturb_seed` feeds sim::Engine::Options::perturb_seed (scheduler
  /// tie-shuffle for race detection; 0 = classic lowest-rank order).  The
  /// trailing sim::SchedBackend is ignored (see its declaration above).
  Testbed(const Machine& machine, int nprocs, std::uint64_t perturb_seed = 0,
          sim::SchedBackend = sim::SchedBackend::kFibers);

  mpi::Runtime& runtime() { return runtime_; }
  pfs::FileSystem& fs() { return *fs_; }
  const Machine& machine() const { return machine_; }

 private:
  Machine machine_;
  mpi::Runtime runtime_;
  std::unique_ptr<pfs::FileSystem> fs_;
};

}  // namespace paramrio::platform
