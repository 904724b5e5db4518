// PnetCDF-analogue backend — the "future work" strategy: same access
// patterns as the MPI-IO and HDF5 backends, expressed through the netCDF-
// style define/data-mode API, whose single enddef synchronisation and flat
// aligned layout avoid the HDF5 overheads of Figure 10.
#include <cstdio>
#include <optional>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "obs/profiler.hpp"
#include "pnetcdf/nc_file.hpp"

namespace paramrio::enzo {

namespace {

pnetcdf::NcType particle_nc_type(std::size_t array_idx) {
  if (array_idx == 0) return pnetcdf::NcType::kInt64;
  if (kParticleArrays[array_idx].elem_size == 4) {
    return pnetcdf::NcType::kFloat;
  }
  return pnetcdf::NcType::kDouble;
}

/// Define the whole dump schema (every grid's variables) in one define
/// phase.  Returns the varids in a deterministic layout.
struct DumpSchema {
  std::vector<int> topgrid_fields;             // kNumBaryonFields
  std::vector<int> particles;                  // kNumParticleArrays (or empty)
  std::map<std::uint64_t, std::vector<int>> subgrid_fields;
};

DumpSchema define_schema(pnetcdf::NcFile& nc, const DumpMeta& meta,
                         const std::array<std::uint64_t, 3>& root_dims) {
  DumpSchema s;
  int dz = nc.def_dim("z", root_dims[0]);
  int dy = nc.def_dim("y", root_dims[1]);
  int dx = nc.def_dim("x", root_dims[2]);
  for (int f = 0; f < amr::kNumBaryonFields; ++f) {
    auto u = static_cast<std::size_t>(f);
    s.topgrid_fields.push_back(
        nc.def_var("topgrid/" + amr::baryon_field_names()[u],
                   pnetcdf::NcType::kFloat, {dz, dy, dx}));
  }
  if (meta.n_particles > 0) {
    int dn = nc.def_dim("n_particles", meta.n_particles);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      s.particles.push_back(
          nc.def_var(std::string("topgrid/") + kParticleArrays[a].name,
                     particle_nc_type(a), {dn}));
    }
  }
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    char buf[32];
    std::snprintf(buf, sizeof buf, "g%06llu_",
                  static_cast<unsigned long long>(g.id));
    int gz = nc.def_dim(std::string(buf) + "z", g.dims[0]);
    int gy = nc.def_dim(std::string(buf) + "y", g.dims[1]);
    int gx = nc.def_dim(std::string(buf) + "x", g.dims[2]);
    auto& vars = s.subgrid_fields[g.id];
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      auto u = static_cast<std::size_t>(f);
      vars.push_back(nc.def_var(
          subgrid_group(g.id) + amr::baryon_field_names()[u],
          pnetcdf::NcType::kFloat, {gz, gy, gx}));
    }
  }
  return s;
}

std::vector<std::uint64_t> vec3(const std::array<std::uint64_t, 3>& a) {
  return {a[0], a[1], a[2]};
}

/// The part read_initial and read_restart share: collective subarray reads
/// of this rank's top-grid block, block-wise particle slices (skipped
/// entirely on ranks with an empty slice) and their redistribution by
/// position.
DumpMeta read_topgrid(pnetcdf::NcFile& nc, mpi::Comm& comm,
                      SimulationState& state) {
  DumpMeta meta = DumpMeta::deserialize(nc.get_att("metadata"));
  OBS_SPAN("pnetcdf_dump.field_read", sim::TimeCategory::kIo);
  std::vector<amr::Array3f> fields;
  const amr::BlockExtent& e = state.my_block;
  for (int f = 0; f < amr::kNumBaryonFields; ++f) {
    auto u = static_cast<std::size_t>(f);
    int v = nc.inq_varid("topgrid/" + amr::baryon_field_names()[u]);
    amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
    nc.get_vara_all(v, vec3(e.start), vec3(e.count), blk.mutable_bytes());
    fields.push_back(std::move(blk));
  }

  amr::ParticleSet particles;
  if (meta.n_particles > 0) {
    auto [first, count] =
        amr::block_range(meta.n_particles, comm.size(), comm.rank());
    amr::ParticleSet slice;
    slice.resize(count);
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      if (count == 0) break;
      int v = nc.inq_varid(std::string("topgrid/") + kParticleArrays[a].name);
      std::vector<std::byte> buf(count * kParticleArrays[a].elem_size);
      nc.get_vara(v, {first}, {count}, buf);
      particle_array_from_bytes(slice, a, count, buf.data());
    }
    particles = amr::redistribute_by_position(
        comm, slice, state.config.root_dims, state.proc_grid);
  }
  install_topgrid(state, meta, std::move(fields), std::move(particles));
  return meta;
}

}  // namespace

void PnetcdfBackend::write_dump(mpi::Comm& comm, const SimulationState& state,
                                const std::string& base) {
  DumpMeta meta;
  meta.time = state.time;
  meta.cycle = state.cycle;
  {
    OBS_SPAN("pnetcdf_dump.meta", sim::TimeCategory::kComm);
    meta.n_particles = comm.allreduce_sum(state.my_particles.size());
  }
  meta.hierarchy = state.hierarchy;

  pnetcdf::NcConfig cfg;
  cfg.hints = hints_;
  std::optional<pnetcdf::NcFile> nc;
  {
    OBS_SPAN("pnetcdf_dump.open", sim::TimeCategory::kIo);
    nc.emplace(pnetcdf::NcFile::create(comm, fs_, base + ".nc", cfg));
  }

  // ---- ONE define phase for the whole dump ------------------------------
  DumpSchema schema;
  {
    OBS_SPAN("pnetcdf_dump.define", sim::TimeCategory::kIo);
    nc->put_att("metadata", meta.serialize());
    schema = define_schema(*nc, meta, state.config.root_dims);
    nc->enddef();
  }

  // ---- top-grid fields: collective subarray writes ----------------------
  {
    OBS_SPAN("pnetcdf_dump.field_write", sim::TimeCategory::kIo);
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      auto u = static_cast<std::size_t>(f);
      nc->put_vara_all(schema.topgrid_fields[u], vec3(state.my_block.start),
                       vec3(state.my_block.count), state.my_fields[u].bytes());
    }
  }

  // ---- particles: parallel sort, block-wise independent writes ----------
  if (meta.n_particles > 0) {
    SortedParticles sorted;
    {
      OBS_SPAN("pnetcdf_dump.particle_sort", sim::TimeCategory::kComm);
      sorted = sort_particles_for_dump(comm, state.my_particles);
    }
    OBS_SPAN("pnetcdf_dump.particle_write", sim::TimeCategory::kIo);
    std::uint64_t my_count = sorted.set.size();
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      if (my_count == 0) continue;
      std::vector<std::byte> buf(my_count * kParticleArrays[a].elem_size);
      particle_array_to_bytes(sorted.set, a, 0, my_count, buf.data());
      nc->put_vara(schema.particles[a], {sorted.first}, {my_count}, buf);
    }
  }

  // ---- subgrids: independent whole-variable writes by their owners,
  //      nonblocking (iput_vara + one wait_all per grid) so grid g+1's
  //      issue overlaps grid g's in-flight flush when overlap is on -------
  {
    OBS_SPAN("pnetcdf_dump.subgrid_write", sim::TimeCategory::kIo);
    std::vector<mpi::io::Request> reqs;
    for (const amr::Grid& g : state.my_subgrids) {
      const auto& vars = schema.subgrid_fields.at(g.desc.id);
      reqs.clear();
      for (int f = 0; f < amr::kNumBaryonFields; ++f) {
        auto u = static_cast<std::size_t>(f);
        reqs.push_back(nc->iput_vara(vars[u], {0, 0, 0}, vec3(g.desc.dims),
                                     g.fields[u].bytes()));
      }
      nc->wait_all(reqs);
    }
  }
  OBS_SPAN("pnetcdf_dump.close", sim::TimeCategory::kIo);
  nc->close();
}

void PnetcdfBackend::read_initial(mpi::Comm& comm, SimulationState& state,
                                  const std::string& base) {
  pnetcdf::NcConfig cfg;
  cfg.hints = hints_;
  pnetcdf::NcFile nc = pnetcdf::NcFile::open(comm, fs_, base + ".nc", cfg);
  const DumpMeta meta = read_topgrid(nc, comm, state);

  // Initial subgrids: every grid partitioned, collective reads; ranks
  // without a piece join with zero counts (netCDF-style), transferring
  // nothing.
  OBS_SPAN("pnetcdf_dump.subgrid_read", sim::TimeCategory::kIo);
  read_partitioned_subgrids(
      comm, state, meta,
      [&](const amr::GridDescriptor& g, int f, const amr::BlockExtent* e,
          std::span<std::byte> out) {
        int v = nc.inq_varid(
            subgrid_group(g.id) +
            amr::baryon_field_names()[static_cast<std::size_t>(f)]);
        if (e != nullptr) {
          nc.get_vara_all(v, vec3(e->start), vec3(e->count), out);
        } else {
          nc.get_vara_all(v, {0, 0, 0}, {0, 0, 0}, {});
        }
      });
  nc.close();
}

void PnetcdfBackend::read_restart(mpi::Comm& comm, SimulationState& state,
                                  const std::string& base) {
  pnetcdf::NcConfig cfg;
  cfg.hints = hints_;
  pnetcdf::NcFile nc = pnetcdf::NcFile::open(comm, fs_, base + ".nc", cfg);
  const DumpMeta meta = read_topgrid(nc, comm, state);

  OBS_SPAN("pnetcdf_dump.subgrid_read", sim::TimeCategory::kIo);
  for (const amr::GridDescriptor& g :
       assign_restart_owners(comm, state, meta.hierarchy)) {
    amr::Grid grid;
    grid.desc = g;
    grid.allocate_fields();
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      auto u = static_cast<std::size_t>(f);
      int v =
          nc.inq_varid(subgrid_group(g.id) + amr::baryon_field_names()[u]);
      nc.get_vara(v, {0, 0, 0}, vec3(g.dims), grid.fields[u].mutable_bytes());
    }
    state.my_subgrids.push_back(std::move(grid));
  }
  nc.close();
}

}  // namespace paramrio::enzo
