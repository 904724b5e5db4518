// The ENZO dump schema, shared by all four I/O backends and the layout
// decoder (dump_inspect.hpp): dump metadata, the particle dataset series,
// file/group naming, the MPI-IO shared-file layout and header, the
// partitioning of new-simulation reads, and restart ownership.  Each
// backend adds only the calls that make up its I/O strategy.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "amr/grid.hpp"
#include "amr/hierarchy.hpp"
#include "enzo/state.hpp"
#include "mpi/comm.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::enzo {

/// Everything a dump stores besides bulk data.
struct DumpMeta {
  double time = 0.0;
  std::uint64_t cycle = 0;
  std::uint64_t n_particles = 0;
  amr::Hierarchy hierarchy;

  std::vector<std::byte> serialize() const;
  static DumpMeta deserialize(std::span<const std::byte> data);
};

/// The fixed order of particle datasets (the paper: "particle ID, particle
/// positions, particle velocities, particle mass, and other particle
/// attributes").
struct ParticleArraySpec {
  const char* name;
  std::uint64_t elem_size;
};
inline constexpr ParticleArraySpec kParticleArrays[] = {
    {"particle_id", 8},         {"particle_position_x", 8},
    {"particle_position_y", 8}, {"particle_position_z", 8},
    {"particle_velocity_x", 8}, {"particle_velocity_y", 8},
    {"particle_velocity_z", 8}, {"particle_mass", 8},
    {"particle_attr_0", 4},     {"particle_attr_1", 4},
};
inline constexpr std::size_t kNumParticleArrays = 10;

/// Copy particle array `idx` (elements [first, first+count)) into `dst`.
void particle_array_to_bytes(const amr::ParticleSet& p, std::size_t idx,
                             std::size_t first, std::size_t count,
                             std::byte* dst);

/// Fill particle array `idx` of `p` (which must already have size >= count)
/// from raw bytes.
void particle_array_from_bytes(amr::ParticleSet& p, std::size_t idx,
                               std::size_t count, const std::byte* src);

/// Bytes of all particle arrays for `n` particles.
std::uint64_t particle_payload_bytes(std::uint64_t n);

/// This rank's share of the globally ID-sorted particles and the global
/// index of its first particle: where its block-wise slice of every
/// particle array starts.
struct SortedParticles {
  amr::ParticleSet set;
  std::uint64_t first = 0;
};

/// Collective: parallel sample sort by ID, then one allgatherv of the
/// per-rank counts for the write offset.
SortedParticles sort_particles_for_dump(mpi::Comm& comm,
                                        const amr::ParticleSet& mine);

/// "<base>.grid%06llu": the HDF4 backend's file holding subgrid `id`.
std::string subgrid_file_name(const std::string& base, std::uint64_t id);

/// "grid%06llu/": the HDF5 group / PnetCDF variable prefix of subgrid `id`
/// (the top grid's is "topgrid/").
std::string subgrid_group(std::uint64_t id);

/// Byte layout of the MPI-IO backend's shared file (`<base>.enzo`),
/// computable on every rank from the dump metadata alone: a 16-byte header
/// (magic, metadata length), the serialized DumpMeta, the top-grid fields,
/// the particle arrays, then each subgrid's fields in hierarchy order.
struct MpiioSharedLayout {
  std::uint64_t topgrid_fields = 0;  ///< start of the top-grid fields
  std::uint64_t field_bytes = 0;     ///< bytes per top-grid field
  std::array<std::uint64_t, kNumParticleArrays> particle_off{};
  std::map<std::uint64_t, std::uint64_t> subgrid_off;  ///< grid id -> start

  std::uint64_t field_off(int f) const {
    return topgrid_fields + static_cast<std::uint64_t>(f) * field_bytes;
  }
};

constexpr std::uint64_t kMpiioDumpMagic = 0x4F5A4E45504D5244ULL;  // "DRMPENZO"

MpiioSharedLayout build_mpiio_layout(
    const DumpMeta& meta, const std::array<std::uint64_t, 3>& root_dims);

/// Decode the MPI-IO dump header of `path` (`size` bytes long) and return
/// the serialized DumpMeta it carries.  Throws FormatError naming `path` on
/// a bad magic or a metadata length past the end of the file.
std::vector<std::byte> read_mpiio_header(const std::string& path,
                                         std::uint64_t size,
                                         const pfs::ReadAt& read);

/// Processor grid used to partition grid `g` among up to `nprocs` ranks:
/// the global processor grid with each axis capped at the grid's cell count
/// (small subgrids are split over fewer ranks; the rest receive nothing).
std::array<int, 3> bounded_proc_grid(const amr::GridDescriptor& g,
                                     int nprocs);

inline int piece_count(const std::array<int, 3>& pg) {
  return pg[0] * pg[1] * pg[2];
}

/// Descriptor of rank `rank`'s (Block,Block,Block) piece of grid `g`
/// (ENZO's new-simulation partitioning of every initial grid); `proc_grid`
/// must come from bounded_proc_grid and rank < piece_count(proc_grid).
amr::GridDescriptor piece_descriptor(const amr::GridDescriptor& g,
                                     const std::array<int, 3>& proc_grid,
                                     int rank);

/// Rebuild `state`'s hierarchy after a new-simulation read: the root plus
/// one piece per (stored subgrid, rank); this rank's pieces carry the data
/// in `my_pieces` (same order as the stored subgrid ids).
void install_partitioned_hierarchy(mpi::Comm& comm, SimulationState& state,
                                   const DumpMeta& meta,
                                   std::vector<amr::Grid> my_pieces);

/// One backend's read of field `f` of stored subgrid `g` in a
/// new-simulation load: this rank's block `*e` of the field into `out`, or,
/// when `e` is null (the rank holds no piece of `g`), a zero-size part in
/// the same collective.
using SubgridFieldRead = std::function<void(
    const amr::GridDescriptor& g, int f, const amr::BlockExtent* e,
    std::span<std::byte> out)>;

/// Collective new-simulation subgrid read: every stored subgrid is split
/// over bounded_proc_grid's ranks, `read` runs for each (subgrid, field) on
/// every rank, and the pieces are installed as in
/// install_partitioned_hierarchy.
void read_partitioned_subgrids(mpi::Comm& comm, SimulationState& state,
                               const DumpMeta& meta,
                               const SubgridFieldRead& read);

/// ENZO's restart placement: stored subgrid i (hierarchy order) goes to
/// rank i % P.  Installs the dump's hierarchy with those owners in `state`
/// (dropping its subgrids) and returns this rank's grids, in order.
std::vector<amr::GridDescriptor> assign_restart_owners(
    mpi::Comm& comm, SimulationState& state, const amr::Hierarchy& stored);

/// Reconstruct top-grid state after the per-rank block fields and the
/// position-partitioned particles are in hand.
void install_topgrid(SimulationState& state, const DumpMeta& meta,
                     std::vector<amr::Array3f> fields,
                     amr::ParticleSet particles);

}  // namespace paramrio::enzo
