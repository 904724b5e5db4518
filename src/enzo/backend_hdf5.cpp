// Parallel HDF5 port of the optimised I/O design: identical access patterns
// to MpiIoBackend, but expressed as HDF5 dataset/hyperslab operations —
// thereby paying the library's metadata-synchronisation, allocation-
// alignment, hyperslab-packing and attribute-serialisation overheads that
// the paper measures in Figure 10.
#include <cstdio>
#include <optional>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "obs/profiler.hpp"

namespace paramrio::enzo {

namespace {

std::string subgrid_ds_name(std::uint64_t id, const std::string& field) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "grid%06llu/",
                static_cast<unsigned long long>(id));
  return buf + field;
}

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
    amr::ParticleSet sorted;
    std::uint64_t first = 0;
    {
      OBS_SPAN("hdf5_dump.particle_sort", sim::TimeCategory::kComm);
      sorted = amr::parallel_sort_by_id(comm, state.my_particles);
      std::uint64_t my_count = sorted.size();
      auto counts_raw =
          comm.allgatherv(std::as_bytes(std::span(&my_count, 1)));
      for (int r = 0; r < comm.rank(); ++r) {
        std::uint64_t c;
        std::memcpy(&c, counts_raw[static_cast<std::size_t>(r)].data(), 8);
        first += c;
      }
    }
    OBS_SPAN("hdf5_dump.particle_write", sim::TimeCategory::kIo);
    const std::uint64_t my_count = sorted.size();
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      hdf5::Dataset d = h->create_dataset(
          std::string("topgrid/") + kParticleArrays[a].name,
          particle_number_type(a), hdf5::Dataspace({meta.n_particles}));
      if (my_count > 0) {
        std::vector<std::byte> buf(my_count * kParticleArrays[a].elem_size);
        particle_array_to_bytes(sorted, a, 0, my_count, buf.data());
        hdf5::Dataspace sel({meta.n_particles});
        sel.select_block({first}, {my_count});
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
            subgrid_ds_name(g.id, amr::baryon_field_names()[u]),
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
  DumpMeta meta = DumpMeta::deserialize(h.read_attribute("metadata"));

  {
    OBS_SPAN("hdf5_dump.field_read", sim::TimeCategory::kIo);
    // Top-grid fields: collective hyperslab reads of my block.
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

    // Particles: block-wise slice reads, then redistribution by position.
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
  }

  // Initial subgrids: every grid partitioned with collective reads.
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  std::vector<amr::Grid> my_pieces;
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    // Small subgrids split over fewer ranks; the rest join the collective
    // transfer with an empty selection (H5Sselect_none).
    std::array<int, 3> pg = bounded_proc_grid(g, comm.size());
    const bool participate = comm.rank() < piece_count(pg);
    amr::Grid piece;
    if (participate) piece.desc = piece_descriptor(g, pg, comm.rank());
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      hdf5::Dataset d =
          h.open_dataset(subgrid_ds_name(g.id, amr::baryon_field_names()[u]));
      if (participate) {
        amr::BlockExtent pe = amr::block_of(g.dims, pg, comm.rank());
        amr::Array3f blk(pe.count[0], pe.count[1], pe.count[2]);
        d.read(block_selection(g.dims, pe), blk.mutable_bytes(),
               /*collective=*/true);
        piece.fields.push_back(std::move(blk));
      } else {
        hdf5::Dataspace none({g.dims[0], g.dims[1], g.dims[2]});
        none.select_none();
        d.read(none, {}, /*collective=*/true);
      }
      d.close();
    }
    if (participate) my_pieces.push_back(std::move(piece));
  }
  h.close();
  install_partitioned_hierarchy(comm, state, meta, std::move(my_pieces));
}

void Hdf5ParallelBackend::read_restart(mpi::Comm& comm,
                                       SimulationState& state,
                                       const std::string& base) {
  hdf5::FileConfig cfg = config_;
  cfg.comm = &comm;
  hdf5::H5File h = open_dump(fs_, base + ".h5", cfg);
  DumpMeta meta = DumpMeta::deserialize(h.read_attribute("metadata"));

  {
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
  }

  // Subgrids round-robin, whole-grid independent reads by their owner.
  OBS_SPAN("hdf5_dump.subgrid_read", sim::TimeCategory::kIo);
  state.hierarchy = meta.hierarchy;
  state.my_subgrids.clear();
  int i = 0;
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    int owner = i % comm.size();
    state.hierarchy.grid_mut(g.id).owner = owner;
    if (owner == comm.rank()) {
      amr::Grid grid;
      grid.desc = g;
      grid.desc.owner = owner;
      grid.allocate_fields();
      for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
        auto u = static_cast<std::size_t>(fi);
        hdf5::Dataset d = h.open_dataset(
            subgrid_ds_name(g.id, amr::baryon_field_names()[u]));
        d.read_all(grid.fields[u].mutable_bytes(), /*collective=*/false);
        d.close();
      }
      state.my_subgrids.push_back(std::move(grid));
    }
    ++i;
  }
  h.close();
}

}  // namespace paramrio::enzo
