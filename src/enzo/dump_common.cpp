#include "enzo/dump_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "amr/particles_par.hpp"
#include "base/byte_io.hpp"

namespace paramrio::enzo {

std::vector<std::byte> DumpMeta::serialize() const {
  ByteWriter w;
  w.f64(time);
  w.u64(cycle);
  w.u64(n_particles);
  auto h = hierarchy.serialize();
  w.u64(h.size());
  w.bytes(h);
  return w.take();
}

DumpMeta DumpMeta::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  DumpMeta m;
  m.time = r.f64();
  m.cycle = r.u64();
  m.n_particles = r.u64();
  std::uint64_t hn = r.u64();
  m.hierarchy = amr::Hierarchy::deserialize(r.bytes(hn));
  return m;
}

void particle_array_to_bytes(const amr::ParticleSet& p, std::size_t idx,
                             std::size_t first, std::size_t count,
                             std::byte* dst) {
  PARAMRIO_REQUIRE(first + count <= p.size(),
                   "particle_array_to_bytes: range out of bounds");
  if (count == 0) return;  // an empty array's data() may be null
  switch (idx) {
    case 0:
      std::memcpy(dst, p.id.data() + first, count * 8);
      return;
    case 1:
    case 2:
    case 3: {
      // position_x -> pos[2], position_y -> pos[1], position_z -> pos[0]
      std::size_t axis = 3 - idx;
      std::memcpy(dst, p.pos[axis].data() + first, count * 8);
      return;
    }
    case 4:
    case 5:
    case 6: {
      std::size_t axis = 6 - idx;
      std::memcpy(dst, p.vel[axis].data() + first, count * 8);
      return;
    }
    case 7:
      std::memcpy(dst, p.mass.data() + first, count * 8);
      return;
    case 8:
    case 9:
      std::memcpy(dst, p.attr[idx - 8].data() + first, count * 4);
      return;
    default:
      throw LogicError("bad particle array index");
  }
}

void particle_array_from_bytes(amr::ParticleSet& p, std::size_t idx,
                               std::size_t count, const std::byte* src) {
  PARAMRIO_REQUIRE(count <= p.size(),
                   "particle_array_from_bytes: set too small");
  if (count == 0) return;  // an empty array's data() may be null
  switch (idx) {
    case 0:
      std::memcpy(p.id.data(), src, count * 8);
      return;
    case 1:
    case 2:
    case 3:
      std::memcpy(p.pos[3 - idx].data(), src, count * 8);
      return;
    case 4:
    case 5:
    case 6:
      std::memcpy(p.vel[6 - idx].data(), src, count * 8);
      return;
    case 7:
      std::memcpy(p.mass.data(), src, count * 8);
      return;
    case 8:
    case 9:
      std::memcpy(p.attr[idx - 8].data(), src, count * 4);
      return;
    default:
      throw LogicError("bad particle array index");
  }
}

std::uint64_t particle_payload_bytes(std::uint64_t n) {
  std::uint64_t total = 0;
  for (const auto& spec : kParticleArrays) total += spec.elem_size * n;
  return total;
}

SortedParticles sort_particles_for_dump(mpi::Comm& comm,
                                        const amr::ParticleSet& mine) {
  SortedParticles out;
  out.set = amr::parallel_sort_by_id(comm, mine);
  std::uint64_t my_count = out.set.size();
  auto counts_raw = comm.allgatherv(std::as_bytes(std::span(&my_count, 1)));
  for (int r = 0; r < comm.rank(); ++r) {
    std::uint64_t c;
    std::memcpy(&c, counts_raw[static_cast<std::size_t>(r)].data(), 8);
    out.first += c;
  }
  return out;
}

std::string subgrid_file_name(const std::string& base, std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, ".grid%06llu",
                static_cast<unsigned long long>(id));
  return base + buf;
}

std::string subgrid_group(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "grid%06llu/",
                static_cast<unsigned long long>(id));
  return buf;
}

MpiioSharedLayout build_mpiio_layout(
    const DumpMeta& meta, const std::array<std::uint64_t, 3>& root_dims) {
  MpiioSharedLayout l;
  l.topgrid_fields = 16 + meta.serialize().size();
  l.field_bytes = root_dims[0] * root_dims[1] * root_dims[2] * sizeof(float);
  std::uint64_t pos =
      l.topgrid_fields +
      static_cast<std::uint64_t>(amr::kNumBaryonFields) * l.field_bytes;
  for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
    l.particle_off[a] = pos;
    pos += kParticleArrays[a].elem_size * meta.n_particles;
  }
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    l.subgrid_off[g.id] = pos;
    pos += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
           g.cell_count() * sizeof(float);
  }
  return l;
}

std::vector<std::byte> read_mpiio_header(const std::string& path,
                                         std::uint64_t size,
                                         const pfs::ReadAt& read) {
  if (size < 16) throw FormatError(path + ": too short for an MPI-IO dump");
  std::vector<std::byte> fixed(16);
  read(0, fixed);
  ByteReader r(fixed);
  if (r.u64() != kMpiioDumpMagic) {
    throw FormatError("not a paramrio MPI-IO dump: " + path);
  }
  const std::uint64_t meta_bytes = r.u64();
  if (meta_bytes > size - 16) {
    throw FormatError(path + ": metadata length " +
                      std::to_string(meta_bytes) + " overruns the " +
                      std::to_string(size) + "-byte file");
  }
  std::vector<std::byte> blob(meta_bytes);
  read(16, blob);
  return blob;
}

std::array<int, 3> bounded_proc_grid(const amr::GridDescriptor& g,
                                     int nprocs) {
  std::array<int, 3> pg = amr::make_proc_grid(nprocs);
  for (int d = 0; d < 3; ++d) {
    auto u = static_cast<std::size_t>(d);
    pg[u] = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(pg[u]),
                                g.dims[u]));
  }
  return pg;
}

amr::GridDescriptor piece_descriptor(const amr::GridDescriptor& g,
                                     const std::array<int, 3>& proc_grid,
                                     int rank) {
  amr::BlockExtent e = amr::block_of(g.dims, proc_grid, rank);
  amr::GridDescriptor piece;
  piece.level = g.level;
  piece.parent = g.parent;
  piece.owner = rank;
  for (int d = 0; d < 3; ++d) {
    auto u = static_cast<std::size_t>(d);
    double w = g.cell_width(d);
    piece.left_edge[u] =
        g.left_edge[u] + static_cast<double>(e.start[u]) * w;
    piece.right_edge[u] =
        g.left_edge[u] + static_cast<double>(e.start[u] + e.count[u]) * w;
    piece.dims[u] = e.count[u];
  }
  return piece;
}

void install_partitioned_hierarchy(mpi::Comm& comm, SimulationState& state,
                                   const DumpMeta& meta,
                                   std::vector<amr::Grid> my_pieces) {
  state.hierarchy = amr::Hierarchy();
  state.hierarchy.set_root(state.config.root_dims);
  state.my_subgrids.clear();
  std::size_t piece_idx = 0;
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    std::array<int, 3> pg = bounded_proc_grid(g, comm.size());
    for (int r = 0; r < piece_count(pg); ++r) {
      amr::GridDescriptor piece = piece_descriptor(g, pg, r);
      // Pieces of deep grids keep their level but hang off the root: the
      // partitioner flattens the tree exactly like ENZO's grid splitting.
      piece.level = 1;
      piece.parent = 0;
      std::uint64_t id = state.hierarchy.add_grid(piece);
      if (r == comm.rank()) {
        PARAMRIO_REQUIRE(piece_idx < my_pieces.size(),
                         "install_partitioned_hierarchy: missing piece data");
        my_pieces[piece_idx].desc = state.hierarchy.grid(id);
        state.my_subgrids.push_back(std::move(my_pieces[piece_idx]));
        ++piece_idx;
      }
    }
  }
  PARAMRIO_REQUIRE(piece_idx == my_pieces.size(),
                   "install_partitioned_hierarchy: extra piece data");
}

void read_partitioned_subgrids(mpi::Comm& comm, SimulationState& state,
                               const DumpMeta& meta,
                               const SubgridFieldRead& read) {
  std::vector<amr::Grid> my_pieces;
  for (const amr::GridDescriptor& g : meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    const std::array<int, 3> pg = bounded_proc_grid(g, comm.size());
    if (comm.rank() >= piece_count(pg)) {
      for (int f = 0; f < amr::kNumBaryonFields; ++f) read(g, f, nullptr, {});
      continue;
    }
    amr::Grid piece;
    piece.desc = piece_descriptor(g, pg, comm.rank());
    const amr::BlockExtent e = amr::block_of(g.dims, pg, comm.rank());
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      amr::Array3f blk(e.count[0], e.count[1], e.count[2]);
      read(g, f, &e, blk.mutable_bytes());
      piece.fields.push_back(std::move(blk));
    }
    my_pieces.push_back(std::move(piece));
  }
  install_partitioned_hierarchy(comm, state, meta, std::move(my_pieces));
}

std::vector<amr::GridDescriptor> assign_restart_owners(
    mpi::Comm& comm, SimulationState& state, const amr::Hierarchy& stored) {
  state.hierarchy = stored;
  state.my_subgrids.clear();
  std::vector<amr::GridDescriptor> mine;
  int i = 0;
  for (const amr::GridDescriptor& g : stored.grids()) {
    if (g.level == 0) continue;
    amr::GridDescriptor& placed = state.hierarchy.grid_mut(g.id);
    placed.owner = i % comm.size();
    ++i;
    if (placed.owner == comm.rank()) mine.push_back(placed);
  }
  return mine;
}

void install_topgrid(SimulationState& state, const DumpMeta& meta,
                     std::vector<amr::Array3f> fields,
                     amr::ParticleSet particles) {
  state.time = meta.time;
  state.cycle = meta.cycle;
  state.my_fields = std::move(fields);
  state.my_particles = std::move(particles);
}

}  // namespace paramrio::enzo
