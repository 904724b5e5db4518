// Parallel HDF5 port of the optimised I/O design: identical access patterns
// to MpiIoBackend, but expressed as HDF5 dataset/hyperslab operations —
// thereby paying the library's metadata-synchronisation, allocation-
// alignment, hyperslab-packing and attribute-serialisation overheads that
// the paper measures in Figure 10.
#include <optional>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "obs/profiler.hpp"

namespace paramrio::enzo {

namespace {

hdf5::NumberType particle_number_type(std::size_t array_idx) {
  if (array_idx == 0) return hdf5::NumberType::kInt64;
  if (kParticleArrays[array_idx].elem_size == 4) {
    return hdf5::NumberType::kFloat32;
  }
  return hdf5::NumberType::kFloat64;
}

hdf5::Dataspace block_selection(const std::array<std::uint64_t, 3>& dims,
                                const amr::BlockExtent& e) {
  hdf5::Dataspace s({dims[0], dims[1], dims[2]});
  s.select_block({e.start[0], e.start[1], e.start[2]},
                 {e.count[0], e.count[1], e.count[2]});
  return s;
}

// The restart-side twin of write_dump's "hdf5_dump.open" span: in parallel
// mode this is the collective metadata read (rank 0 walks, then a bcast).
hdf5::H5File open_dump(pfs::FileSystem& fs, const std::string& path,
                       const hdf5::FileConfig& cfg) {
  OBS_SPAN("hdf5_dump.open", sim::TimeCategory::kIo);
  return hdf5::H5File::open(fs, path, cfg);
}

/// The part read_initial and read_restart share: collective hyperslab
/// reads of this rank's top-grid block, block-wise particle slices (every
/// rank opens and closes every particle dataset, even with an empty slice)
/// and their redistribution by position.
DumpMeta read_topgrid(hdf5::H5File& h, mpi::Comm& comm,
                      SimulationState& state) {
  DumpMeta meta = DumpMeta::deserialize(h.read_attribute("metadata"));
  OBS_SPAN("hdf5_dump.field_read", sim::TimeCategory::kIo);
  const auto& dims = state.config.root_dims;
  std::vector<amr::Array3f> fields;
  const amr::BlockExtent& e = state.my_block;
  for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
    auto u = static_cast<std::size_t>(fi);
    hdf5::Dataset d =
        h.open_dataset("topgrid/" + amr::baryon_field_names()[u]);
    amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
    d.read(block_selection(dims, e), blk.mutable_bytes(),
           /*collective=*/true);
    d.close();
    fields.push_back(std::move(blk));
  }

  amr::ParticleSet particles;
  if (meta.n_particles > 0) {
    auto [first, count] =
        amr::block_range(meta.n_particles, comm.size(), comm.rank());
    amr::ParticleSet slice;
    slice.resize(count);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      hdf5::Dataset d =
          h.open_dataset(std::string("topgrid/") + kParticleArrays[a].name);
      if (count > 0) {
        std::vector<std::byte> buf(count * kParticleArrays[a].elem_size);
        hdf5::Dataspace sel({meta.n_particles});
        sel.select_block({first}, {count});
        d.read(sel, buf, /*collective=*/false);
        particle_array_from_bytes(slice, a, count, buf.data());
      }
      d.close();
    }
    particles = amr::redistribute_by_position(
        comm, slice, state.config.root_dims, state.proc_grid);
  }
  install_topgrid(state, meta, std::move(fields), std::move(particles));
  return meta;
}

}  // namespace

void Hdf5ParallelBackend::write_dump(mpi::Comm& comm,
                                     const SimulationState& state,
                                     const std::string& base) {
  DumpMeta meta;
  meta.time = state.time;
  meta.cycle = state.cycle;
  {
    OBS_SPAN("hdf5_dump.meta", sim::TimeCategory::kComm);
    meta.n_particles = comm.allreduce_sum(state.my_particles.size());
  }
  meta.hierarchy = state.hierarchy;

  hdf5::FileConfig cfg = config_;
  cfg.comm = &comm;
  std::optional<hdf5::H5File> h;
  {
    OBS_SPAN("hdf5_dump.open", sim::TimeCategory::kIo);
    h.emplace(hdf5::H5File::create(fs_, base + ".h5", cfg));
    h->write_attribute("metadata", meta.serialize());
  }

  // ---- top-grid fields: collective creates + collective hyperslab writes
  {
    OBS_SPAN("hdf5_dump.field_write", sim::TimeCategory::kIo);
    const auto& dims = state.config.root_dims;
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      hdf5::Dataset d =
          h->create_dataset("topgrid/" + amr::baryon_field_names()[u],
                            hdf5::NumberType::kFloat32,
                            hdf5::Dataspace({dims[0], dims[1], dims[2]}));
      d.write(block_selection(dims, state.my_block),
              state.my_fields[u].bytes(), /*collective=*/true);
      d.close();
    }
  }

  // ---- particles: parallel sort, then block-wise non-collective writes ---
  if (meta.n_particles > 0) {
    SortedParticles sorted;
    {
      OBS_SPAN("hdf5_dump.particle_sort", sim::TimeCategory::kComm);
      sorted = sort_particles_for_dump(comm, state.my_particles);
    }
    OBS_SPAN("hdf5_dump.particle_write", sim::TimeCategory::kIo);
    const std::uint64_t my_count = sorted.set.size();
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      hdf5::Dataset d = h->create_dataset(
          std::string("topgrid/") + kParticleArrays[a].name,
          particle_number_type(a), hdf5::Dataspace({meta.n_particles}));
      if (my_count > 0) {
        std::vector<std::byte> buf(my_count * kParticleArrays[a].elem_size);
        particle_array_to_bytes(sorted.set, a, 0, my_count, buf.data());
        hdf5::Dataspace sel({meta.n_particles});
        sel.select_block({sorted.first}, {my_count});
        d.write(sel, buf, /*collective=*/false);
      }
      d.close();
    }
  }

  // ---- subgrids: collective creates (the HDF5 pain point — a
  //      synchronisation per dataset), independent owner writes ------------
  {
    OBS_SPAN("hdf5_dump.subgrid_write", sim::TimeCategory::kIo);
    for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
      if (g.level == 0) continue;
      const amr::Grid* mine = nullptr;
      for (const amr::Grid& sg : state.my_subgrids) {
        if (sg.desc.id == g.id) mine = &sg;
      }
      for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
        auto u = static_cast<std::size_t>(fi);
        hdf5::Dataset d = h->create_dataset(
            subgrid_group(g.id) + amr::baryon_field_names()[u],
            hdf5::NumberType::kFloat32,
            hdf5::Dataspace({g.dims[0], g.dims[1], g.dims[2]}));
        if (mine != nullptr) {
          d.write_all(mine->fields[u].bytes(), /*collective=*/false);
        }
        d.close();
      }
    }
  }
  OBS_SPAN("hdf5_dump.close", sim::TimeCategory::kIo);
  h->close();
}

void Hdf5ParallelBackend::read_initial(mpi::Comm& comm,
                                       SimulationState& state,
                                       const std::string& base) {
  hdf5::FileConfig cfg = config_;
  cfg.comm = &comm;
  hdf5::H5File h = open_dump(fs_, base + ".h5", cfg);
  const DumpMeta meta = read_topgrid(h, comm, state);

  // Initial subgrids: every grid partitioned with collective reads; ranks
  // without a piece join with an empty selection (H5Sselect_none).
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  read_partitioned_subgrids(
      comm, state, meta,
      [&](const amr::GridDescriptor& g, int f, const amr::BlockExtent* e,
          std::span<std::byte> out) {
        hdf5::Dataset d = h.open_dataset(
            subgrid_group(g.id) +
            amr::baryon_field_names()[static_cast<std::size_t>(f)]);
        hdf5::Dataspace sel({g.dims[0], g.dims[1], g.dims[2]});
        if (e != nullptr) {
          sel = block_selection(g.dims, *e);
        } else {
          sel.select_none();
        }
        d.read(sel, out, /*collective=*/true);
        d.close();
      });
  h.close();
}

void Hdf5ParallelBackend::read_restart(mpi::Comm& comm,
                                       SimulationState& state,
                                       const std::string& base) {
  hdf5::FileConfig cfg = config_;
  cfg.comm = &comm;
  hdf5::H5File h = open_dump(fs_, base + ".h5", cfg);
  const DumpMeta meta = read_topgrid(h, comm, state);

  // Subgrids round-robin, whole-grid independent reads by their owner.
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  for (const amr::GridDescriptor& g :
       assign_restart_owners(comm, state, meta.hierarchy)) {
    amr::Grid grid;
    grid.desc = g;
    grid.allocate_fields();
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      hdf5::Dataset d = h.open_dataset(subgrid_group(g.id) +
                                       amr::baryon_field_names()[u]);
      d.read_all(grid.fields[u].mutable_bytes(), /*collective=*/false);
      d.close();
    }
    state.my_subgrids.push_back(std::move(grid));
  }
  h.close();
}

}  // namespace paramrio::enzo
