// Original ENZO I/O: serial HDF4-style access through processor 0 for the
// top-grid (gather + sort + sequential write; read + scatter), with each
// processor writing/reading subgrid files itself.
#include <optional>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/hierarchy_file.hpp"
#include "hdf4/sd_file.hpp"
#include "obs/profiler.hpp"

namespace paramrio::enzo {

namespace {

hdf4::NumberType particle_number_type(std::size_t array_idx) {
  if (array_idx == 0) return hdf4::NumberType::kInt64;
  if (kParticleArrays[array_idx].elem_size == 4) {
    return hdf4::NumberType::kFloat32;
  }
  return hdf4::NumberType::kFloat64;
}

/// Rank 0 gathers each field of the block-partitioned top-grid and
/// reassembles the full arrays.
std::vector<amr::Array3f> gather_topgrid_fields(mpi::Comm& comm,
                                                const SimulationState& state) {
  std::vector<amr::Array3f> full;
  for (int f = 0; f < amr::kNumBaryonFields; ++f) {
    auto uf = static_cast<std::size_t>(f);
    auto parts = comm.gatherv(state.my_fields[uf].bytes(), 0);
    if (comm.rank() == 0) {
      amr::Array3f whole(state.config.root_dims[0], state.config.root_dims[1],
                         state.config.root_dims[2]);
      for (int r = 0; r < comm.size(); ++r) {
        amr::BlockExtent e =
            amr::block_of(state.config.root_dims, state.proc_grid, r);
        amr::copy_block_in(
            whole, e,
            reinterpret_cast<const float*>(
                parts[static_cast<std::size_t>(r)].data()));
        comm.charge_memcpy(parts[static_cast<std::size_t>(r)].size());
      }
      full.push_back(std::move(whole));
    }
  }
  return full;
}

/// Rank 0 scatters full top-grid fields as (Block,Block,Block) pieces.
std::vector<amr::Array3f> scatter_topgrid_fields(
    mpi::Comm& comm, const SimulationState& state,
    const std::vector<amr::Array3f>& full) {
  std::vector<amr::Array3f> mine;
  for (int f = 0; f < amr::kNumBaryonFields; ++f) {
    std::vector<mpi::Bytes> chunks;
    if (comm.rank() == 0) {
      for (int r = 0; r < comm.size(); ++r) {
        amr::BlockExtent e =
            amr::block_of(state.config.root_dims, state.proc_grid, r);
        mpi::Bytes piece(e.cells() * sizeof(float));
        amr::copy_block_out(full[static_cast<std::size_t>(f)], e,
                            reinterpret_cast<float*>(piece.data()));
        comm.charge_memcpy(piece.size());
        chunks.push_back(std::move(piece));
      }
    }
    mpi::Bytes got = comm.scatterv(chunks, 0);
    const amr::BlockExtent& e = state.my_block;
    amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
    std::memcpy(blk.data(), got.data(), got.size());
    mine.push_back(std::move(blk));
  }
  return mine;
}

/// Rank 0 reads all particle arrays from a dump and routes each particle to
/// the rank owning its position.
amr::ParticleSet scatter_particles(mpi::Comm& comm,
                                   const SimulationState& state,
                                   const hdf4::SdFile* top,
                                   std::uint64_t n_total) {
  std::vector<mpi::Bytes> chunks;
  if (comm.rank() == 0) {
    amr::ParticleSet all;
    all.resize(n_total);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      std::vector<std::byte> buf(n_total * kParticleArrays[a].elem_size);
      top->read_dataset(kParticleArrays[a].name, buf);
      particle_array_from_bytes(all, a, n_total, buf.data());
    }
    std::vector<std::vector<std::uint32_t>> buckets(
        static_cast<std::size_t>(comm.size()));
    for (std::size_t i = 0; i < all.size(); ++i) {
      int dst = amr::rank_of_position({all.pos[0][i], all.pos[1][i],
                                       all.pos[2][i]},
                                      state.config.root_dims,
                                      state.proc_grid);
      buckets[static_cast<std::size_t>(dst)].push_back(
          static_cast<std::uint32_t>(i));
    }
    for (int r = 0; r < comm.size(); ++r) {
      chunks.push_back(
          amr::pack_particles(all, buckets[static_cast<std::size_t>(r)]));
    }
    comm.charge_memcpy(particle_payload_bytes(n_total));
  }
  mpi::Bytes mine = comm.scatterv(chunks, 0);
  amr::ParticleSet p;
  amr::unpack_particles(mine, p);
  return p;
}

DumpMeta read_meta(mpi::Comm& comm, const hdf4::SdFile* top) {
  mpi::Bytes blob;
  if (comm.rank() == 0) {
    auto v = top->read_attribute("metadata");
    blob.assign(v.begin(), v.end());
  }
  comm.bcast(blob, 0);
  return DumpMeta::deserialize(blob);
}

/// The part read_initial and read_restart share: rank 0 opens the top-grid
/// file, reads the metadata (broadcast to all), the full top-grid fields
/// and all particles, and scatters (Block,Block,Block) pieces and each
/// rank's position-partitioned particles.
DumpMeta read_topgrid(mpi::Comm& comm, SimulationState& state,
                      pfs::FileSystem& fs, const std::string& base) {
  std::optional<hdf4::SdFile> top;
  if (comm.rank() == 0) top = hdf4::SdFile::open(fs, base + ".topgrid");
  DumpMeta meta = read_meta(comm, top ? &*top : nullptr);

  std::vector<amr::Array3f> full;
  {
    OBS_SPAN("hdf4.topgrid_read", sim::TimeCategory::kIo);
    if (comm.rank() == 0) {
      const auto& dims = state.config.root_dims;
      for (int f = 0; f < amr::kNumBaryonFields; ++f) {
        auto u = static_cast<std::size_t>(f);
        amr::Array3f whole(dims[0], dims[1], dims[2]);
        top->read_dataset(amr::baryon_field_names()[u], whole.mutable_bytes());
        full.push_back(std::move(whole));
      }
    }
  }
  OBS_SPAN("hdf4.scatter", sim::TimeCategory::kComm);
  auto fields = scatter_topgrid_fields(comm, state, full);
  auto particles = scatter_particles(comm, state, top ? &*top : nullptr,
                                     meta.n_particles);
  if (comm.rank() == 0) top->close();
  install_topgrid(state, meta, std::move(fields), std::move(particles));
  return meta;
}

void write_subgrid_files(const SimulationState& state, pfs::FileSystem& fs,
                         const std::string& base) {
  for (const amr::Grid& g : state.my_subgrids) {
    hdf4::SdFile f =
        hdf4::SdFile::create(fs, subgrid_file_name(base, g.desc.id));
    for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
      auto u = static_cast<std::size_t>(fi);
      f.write_dataset(amr::baryon_field_names()[u], hdf4::NumberType::kFloat32,
                      {g.desc.dims[0], g.desc.dims[1], g.desc.dims[2]},
                      g.fields[u].bytes());
    }
    f.close();
  }
}

amr::Grid read_whole_subgrid(pfs::FileSystem& fs, const std::string& base,
                             const amr::GridDescriptor& desc) {
  amr::Grid g;
  g.desc = desc;
  g.allocate_fields();
  hdf4::SdFile f = hdf4::SdFile::open(fs, subgrid_file_name(base, desc.id));
  for (int fi = 0; fi < amr::kNumBaryonFields; ++fi) {
    auto u = static_cast<std::size_t>(fi);
    f.read_dataset(amr::baryon_field_names()[u], g.fields[u].mutable_bytes());
  }
  f.close();
  return g;
}

}  // namespace

void Hdf4SerialBackend::write_dump(mpi::Comm& comm,
                                   const SimulationState& state,
                                   const std::string& base) {
  // ---- top-grid: gather to rank 0, sort particles, write serially --------
  std::vector<amr::Array3f> full;
  std::vector<mpi::Bytes> parts;
  {
    OBS_SPAN("hdf4.gather", sim::TimeCategory::kComm);
    full = gather_topgrid_fields(comm, state);
    auto packed = amr::pack_particles(state.my_particles);
    parts = comm.gatherv(packed, 0);
  }

  // Virtual completion time of rank 0's deferred top-grid write (< 0: none).
  double top_completion = -1.0;
  if (comm.rank() == 0) {
    amr::ParticleSet all;
    {
      OBS_SPAN("hdf4.sort", sim::TimeCategory::kCpu);
      for (const auto& b : parts) amr::unpack_particles(b, all);
      // "the particles and their associated data arrays are sorted in the
      // original order in which the particles were initially read"
      comm.charge_sort(all.size());
      amr::local_sort_by_id(all);
    }

    DumpMeta meta;
    meta.time = state.time;
    meta.cycle = state.cycle;
    meta.n_particles = all.size();
    meta.hierarchy = state.hierarchy;

    auto write_top = [&] {
      hdf4::SdFile top = hdf4::SdFile::create(fs_, base + ".topgrid");
      top.write_attribute("metadata", meta.serialize());
      const auto& dims = state.config.root_dims;
      for (int f = 0; f < amr::kNumBaryonFields; ++f) {
        auto u = static_cast<std::size_t>(f);
        top.write_dataset(amr::baryon_field_names()[u],
                          hdf4::NumberType::kFloat32,
                          {dims[0], dims[1], dims[2]}, full[u].bytes());
      }
      for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
        std::vector<std::byte> buf(all.size() * kParticleArrays[a].elem_size);
        particle_array_to_bytes(all, a, 0, all.size(), buf.data());
        top.write_dataset(kParticleArrays[a].name, particle_number_type(a),
                          {all.size()}, buf);
      }
      top.close();
      // The human-readable hierarchy file real ENZO writes beside each dump.
      write_hierarchy_file(fs_, base + ".hierarchy", state.hierarchy,
                           state.time, state.cycle);
    };
    if (overlap_ && sim::in_simulation()) {
      // Defer the serial top-grid flush: rank 0 joins the barrier at its
      // pre-I/O clock, so the other P-1 ranks start their subgrid files
      // while the top-grid file is still flushing; rank 0 settles below.
      sim::Proc& proc = sim::current_proc();
      sim::DeferredScope defer(proc);
      OBS_SPAN("hdf4.topgrid_write", sim::TimeCategory::kIo);
      write_top();
      top_completion = defer.end();
    } else {
      OBS_SPAN("hdf4.topgrid_write", sim::TimeCategory::kIo);
      write_top();
    }
  }
  {
    OBS_SPAN("hdf4.barrier", sim::TimeCategory::kComm);
    comm.barrier();
  }
  if (top_completion >= 0.0) {
    // Rank 0's in-flight top-grid write completes here; the barrier wait
    // hid part (often all) of it.
    obs::settle_to(top_completion, obs::WaitKind::kSettleWait);
  }

  // ---- subgrids: each processor writes its own files, no communication ---
  {
    OBS_SPAN("hdf4.subgrid_write", sim::TimeCategory::kIo);
    write_subgrid_files(state, fs_, base);
  }
  OBS_SPAN("hdf4.barrier", sim::TimeCategory::kComm);
  comm.barrier();
}

void Hdf4SerialBackend::read_initial(mpi::Comm& comm, SimulationState& state,
                                     const std::string& base) {
  const DumpMeta meta = read_topgrid(comm, state, fs_, base);

  // Subgrids: rank 0 reads each file and scatters (Block,Block,Block)
  // pieces of every field to all ranks.
  OBS_SPAN("hdf4.subgrid_read", sim::TimeCategory::kIo);
  std::vector<amr::Grid> my_pieces;
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    // Small subgrids split across fewer ranks than P (each axis capped at
    // the grid's cell count); the remaining ranks receive nothing.
    std::array<int, 3> pg = bounded_proc_grid(g, comm.size());
    const int pieces = piece_count(pg);
    const bool participate = comm.rank() < pieces;
    amr::Grid whole;
    if (comm.rank() == 0) {
      whole = read_whole_subgrid(fs_, base, g);
    }
    amr::Grid piece;
    if (participate) piece.desc = piece_descriptor(g, pg, comm.rank());
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      auto u = static_cast<std::size_t>(f);
      std::vector<mpi::Bytes> chunks;
      if (comm.rank() == 0) {
        chunks.resize(static_cast<std::size_t>(comm.size()));
        for (int r = 0; r < pieces; ++r) {
          amr::BlockExtent e = amr::block_of(g.dims, pg, r);
          mpi::Bytes buf(e.cells() * sizeof(float));
          amr::copy_block_out(whole.fields[u], e,
                              reinterpret_cast<float*>(buf.data()));
          comm.charge_memcpy(buf.size());
          chunks[static_cast<std::size_t>(r)] = std::move(buf);
        }
      }
      mpi::Bytes got = comm.scatterv(chunks, 0);
      if (participate) {
        amr::Array3f blk(piece.desc.dims[0], piece.desc.dims[1],
                         piece.desc.dims[2]);
        std::memcpy(blk.data(), got.data(), got.size());
        piece.fields.push_back(std::move(blk));
      }
    }
    if (participate) my_pieces.push_back(std::move(piece));
  }
  install_partitioned_hierarchy(comm, state, meta, std::move(my_pieces));
}

void Hdf4SerialBackend::read_restart(mpi::Comm& comm, SimulationState& state,
                                     const std::string& base) {
  const DumpMeta meta = read_topgrid(comm, state, fs_, base);

  // Subgrids round-robin: each is read whole by its owner.
  OBS_SPAN("hdf4.subgrid_read", sim::TimeCategory::kIo);
  for (const amr::GridDescriptor& g :
       assign_restart_owners(comm, state, meta.hierarchy)) {
    state.my_subgrids.push_back(read_whole_subgrid(fs_, base, g));
  }
  comm.barrier();
}

}  // namespace paramrio::enzo
