// The paper's optimised I/O port: all grids in one shared file, collective
// two-phase subarray I/O for the regularly partitioned baryon fields,
// parallel sample sort + block-wise non-collective I/O for the irregularly
// partitioned particle arrays.
#include <map>
#include <optional>
#include <type_traits>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "obs/profiler.hpp"

namespace paramrio::enzo {

namespace {

mpi::Datatype block_subarray(const std::array<std::uint64_t, 3>& dims,
                             const amr::BlockExtent& e) {
  return mpi::Datatype::subarray(
      {dims[0], dims[1], dims[2]}, {e.count[0], e.count[1], e.count[2]},
      {e.start[0], e.start[1], e.start[2]}, sizeof(float));
}

DumpMeta read_header(mpi::io::File& f) {
  f.set_view(0);
  return DumpMeta::deserialize(read_mpiio_header(
      f.path(), f.size(), [&](std::uint64_t off, std::span<std::byte> out) {
        f.read_at(off, out);
      }));
}

/// Collective read of this rank's (Block,Block,Block) pieces of the
/// top-grid fields.
std::vector<amr::Array3f> read_topgrid_collective(
    mpi::io::File& f, const SimulationState& state,
    const MpiioSharedLayout& layout) {
  std::vector<amr::Array3f> fields;
  const amr::BlockExtent& e = state.my_block;
  for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
    amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
    f.set_view(layout.field_off(fi),
               block_subarray(state.config.root_dims, e));
    f.read_at_all(0, blk.mutable_bytes());
    fields.push_back(std::move(blk));
  }
  return fields;
}

/// Issue prefetches for this rank's block-wise slice of every particle
/// array (restores the identity view afterwards).  No-op unless the file's
/// hints enable overlap.
void prefetch_particle_slices(mpi::io::File& f, mpi::Comm& comm,
                              const DumpMeta& meta,
                              const MpiioSharedLayout& layout) {
  auto [first, count] =
      amr::block_range(meta.n_particles, comm.size(), comm.rank());
  for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
    f.set_view(layout.particle_off[a]);
    f.prefetch(first * kParticleArrays[a].elem_size,
               count * kParticleArrays[a].elem_size);
  }
  f.set_view(0);
}

/// Block-wise particle read: rank r reads slice r of every array, then the
/// particles are redistributed to their position owners.  `pre_redistribute`
/// (optional) runs after the slices are read but before the redistribution
/// exchange — the read-prefetch hook, so the next reader's I/O can run in
/// flight under the redistribution comm.
template <typename PreRedistribute = std::nullptr_t>
amr::ParticleSet read_particles_blockwise(
    mpi::io::File& f, mpi::Comm& comm, const SimulationState& state,
    const DumpMeta& meta, const MpiioSharedLayout& layout,
    PreRedistribute pre_redistribute = nullptr) {
  auto [first, count] =
      amr::block_range(meta.n_particles, comm.size(), comm.rank());
  amr::ParticleSet slice;
  slice.resize(count);
  for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
    std::vector<std::byte> buf(count * kParticleArrays[a].elem_size);
    f.set_view(layout.particle_off[a]);
    f.read_at(first * kParticleArrays[a].elem_size, buf);
    particle_array_from_bytes(slice, a, count, buf.data());
  }
  if constexpr (!std::is_same_v<PreRedistribute, std::nullptr_t>) {
    pre_redistribute();
  }
  return amr::redistribute_by_position(comm, slice, state.config.root_dims,
                                       state.proc_grid);
}

}  // namespace

void MpiIoBackend::write_dump(mpi::Comm& comm, const SimulationState& state,
                              const std::string& base) {
  DumpMeta meta;
  meta.time = state.time;
  meta.cycle = state.cycle;
  {
    OBS_SPAN("mpiio_dump.meta", sim::TimeCategory::kComm);
    meta.n_particles = comm.allreduce_sum(state.my_particles.size());
  }
  meta.hierarchy = state.hierarchy;
  MpiioSharedLayout layout = build_mpiio_layout(meta, state.config.root_dims);

  std::optional<mpi::io::File> f;
  {
    OBS_SPAN("mpiio_dump.open", sim::TimeCategory::kIo);
    f.emplace(comm, fs_, base + ".enzo", pfs::OpenMode::kCreate, hints_);
  }

  if (comm.rank() == 0) {
    OBS_SPAN("mpiio_dump.header", sim::TimeCategory::kIo);
    ByteWriter w;
    w.u64(kMpiioDumpMagic);
    auto blob = meta.serialize();
    w.u64(blob.size());
    w.bytes(blob);
    auto hdr = w.take();
    f->set_view(0);
    f->write_at(0, hdr);
  }

  // ---- top-grid baryon fields: collective two-phase subarray writes ------
  // With overlap on, the last field goes through the split-collective
  // interface: its begin leaves the final window's write in flight and the
  // particle sort (pure comm) runs before the end call collects it.
  const bool overlap = hints_.overlap;
  {
    OBS_SPAN("mpiio_dump.field_write", sim::TimeCategory::kIo);
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      f->set_view(layout.field_off(fi),
                  block_subarray(state.config.root_dims, state.my_block));
      const auto buf = state.my_fields[static_cast<std::size_t>(fi)].bytes();
      if (overlap && fi + 1 == amr::kNumBaryonFields) {
        f->write_at_all_begin(0, buf);
      } else {
        f->write_at_all(0, buf);
      }
    }
  }

  // ---- particles: parallel sort by ID, then block-wise contiguous
  //      independent writes ("non-collective because the block-wise pattern
  //      always results in contiguous access in each processor") -----------
  SortedParticles sorted;
  {
    OBS_SPAN("mpiio_dump.particle_sort", sim::TimeCategory::kComm);
    sorted = sort_particles_for_dump(comm, state.my_particles);
  }
  if (overlap) f->write_at_all_end();
  {
    OBS_SPAN("mpiio_dump.particle_write", sim::TimeCategory::kIo);
    const std::uint64_t my_count = sorted.set.size();
    // Nonblocking per-array writes: packing array a+1 runs while array a's
    // write is in flight.  The buffers must outlive their requests.
    std::vector<std::vector<std::byte>> bufs(kNumParticleArrays);
    std::vector<mpi::io::Request> reqs;
    reqs.reserve(kNumParticleArrays);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      bufs[a].resize(my_count * kParticleArrays[a].elem_size);
      particle_array_to_bytes(sorted.set, a, 0, my_count, bufs[a].data());
      f->set_view(layout.particle_off[a]);
      reqs.push_back(f->iwrite_at(sorted.first * kParticleArrays[a].elem_size,
                                  bufs[a]));
    }
    f->wait_all(reqs);
  }

  // ---- subgrids: every owner writes its grids into the shared file -------
  {
    OBS_SPAN("mpiio_dump.subgrid_write", sim::TimeCategory::kIo);
    f->set_view(0);
    // Nonblocking per-field writes, waited per grid: field fi+1's issue
    // (gather/pack side) overlaps field fi's flush — level L+1 packs while
    // level L is in flight.
    std::vector<mpi::io::Request> reqs;
    for (const amr::Grid& g : state.my_subgrids) {
      std::uint64_t off = layout.subgrid_off.at(g.desc.id);
      std::uint64_t per_field = g.desc.cell_count() * sizeof(float);
      reqs.clear();
      for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
        reqs.push_back(
            f->iwrite_at(off + static_cast<std::uint64_t>(fi) * per_field,
                         g.fields[static_cast<std::size_t>(fi)].bytes()));
      }
      f->wait_all(reqs);
    }
  }
  OBS_SPAN("mpiio_dump.close", sim::TimeCategory::kIo);
  f->close();
}

void MpiIoBackend::read_initial(mpi::Comm& comm, SimulationState& state,
                                const std::string& base) {
  mpi::io::File f(comm, fs_, base + ".enzo", pfs::OpenMode::kRead, hints_);
  DumpMeta meta = read_header(f);
  MpiioSharedLayout layout = build_mpiio_layout(meta, state.config.root_dims);

  {
    OBS_SPAN("mpiio_dump.field_read", sim::TimeCategory::kIo);
    auto fields = read_topgrid_collective(f, state, layout);
    auto particles = read_particles_blockwise(f, comm, state, meta, layout);
    install_topgrid(state, meta, std::move(fields), std::move(particles));
  }

  // Initial subgrids are read "in the same way as the top-grid": every grid
  // partitioned across all ranks with collective subarray reads; small
  // subgrids split across fewer ranks, the rest join with a zero-size
  // request.
  OBS_SPAN("mpiio_dump.subgrid_read", sim::TimeCategory::kIo);
  read_partitioned_subgrids(
      comm, state, meta,
      [&](const amr::GridDescriptor& g, int fi, const amr::BlockExtent* e,
          std::span<std::byte> out) {
        const std::uint64_t off =
            layout.subgrid_off.at(g.id) +
            static_cast<std::uint64_t>(fi) * g.cell_count() * sizeof(float);
        if (e != nullptr) {
          f.set_view(off, block_subarray(g.dims, *e));
        } else {
          f.set_view(off);
        }
        f.read_at_all(0, out);
      });
  f.close();
}

void MpiIoBackend::read_restart(mpi::Comm& comm, SimulationState& state,
                                const std::string& base) {
  mpi::io::File f(comm, fs_, base + ".enzo", pfs::OpenMode::kRead, hints_);
  DumpMeta meta = read_header(f);
  MpiioSharedLayout layout = build_mpiio_layout(meta, state.config.root_dims);

  // The round-robin subgrid assignment is computable from the metadata
  // alone; knowing my grids up front lets the prefetcher run ahead.
  const std::vector<amr::GridDescriptor> my_grids =
      assign_restart_owners(comm, state, meta.hierarchy);
  auto prefetch_subgrid = [&](std::size_t idx) {
    if (idx >= my_grids.size()) return;
    const amr::GridDescriptor& g = my_grids[idx];
    std::uint64_t off = layout.subgrid_off.at(g.id);
    std::uint64_t per_field = g.cell_count() * sizeof(float);
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      f.prefetch(off + static_cast<std::uint64_t>(fi) * per_field,
                 per_field);
    }
  };

  {
    OBS_SPAN("mpiio_dump.field_read", sim::TimeCategory::kIo);
    // Read-ahead of this rank's particle slices: the prefetch I/O runs in
    // flight under the collective field reads' exchange phases.
    if (hints_.overlap) prefetch_particle_slices(f, comm, meta, layout);
    auto fields = read_topgrid_collective(f, state, layout);
    // The first owned subgrid's fields prefetch ahead of the particle
    // redistribution, so that exchange hides their read.
    auto particles = read_particles_blockwise(
        f, comm, state, meta, layout, [&] {
          if (hints_.overlap) {
            f.set_view(0);
            prefetch_subgrid(0);
          }
        });
    install_topgrid(state, meta, std::move(fields), std::move(particles));
  }

  // Subgrids round-robin, whole-grid contiguous independent reads, each
  // grid's slice prefetched while the previous one is consumed.
  OBS_SPAN("mpiio_dump.subgrid_read", sim::TimeCategory::kIo);
  f.set_view(0);
  for (std::size_t gi = 0; gi < my_grids.size(); ++gi) {
    const amr::GridDescriptor& g = my_grids[gi];
    if (hints_.overlap) prefetch_subgrid(gi + 1);
    amr::Grid grid;
    grid.desc = g;
    grid.allocate_fields();
    std::uint64_t off = layout.subgrid_off.at(g.id);
    std::uint64_t per_field = g.cell_count() * sizeof(float);
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      f.read_at(off + static_cast<std::uint64_t>(fi) * per_field,
                grid.fields[static_cast<std::size_t>(fi)].mutable_bytes());
    }
    state.my_subgrids.push_back(std::move(grid));
  }
  f.close();
}

}  // namespace paramrio::enzo
