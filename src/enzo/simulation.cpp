#include "enzo/simulation.hpp"

#include <algorithm>

#include "amr/ghost.hpp"
#include "amr/load_balance.hpp"
#include "amr/particles_par.hpp"
#include "base/byte_io.hpp"

namespace paramrio::enzo {

namespace {

amr::GridDescriptor block_descriptor(
    const std::array<std::uint64_t, 3>& root_dims,
    const amr::BlockExtent& block) {
  amr::GridDescriptor d;
  for (int i = 0; i < 3; ++i) {
    auto u = static_cast<std::size_t>(i);
    d.left_edge[u] = static_cast<double>(block.start[u]) /
                     static_cast<double>(root_dims[u]);
    d.right_edge[u] = static_cast<double>(block.start[u] + block.count[u]) /
                      static_cast<double>(root_dims[u]);
    d.dims[u] = block.count[u];
  }
  return d;
}

mpi::Bytes serialize_descs(const std::vector<amr::GridDescriptor>& descs) {
  ByteWriter w;
  w.u64(descs.size());
  for (const auto& g : descs) {
    w.u64(g.parent);
    w.u32(static_cast<std::uint32_t>(g.level));
    for (double e : g.left_edge) w.f64(e);
    for (double e : g.right_edge) w.f64(e);
    for (auto d : g.dims) w.u64(d);
  }
  return w.take();
}

std::vector<amr::GridDescriptor> deserialize_descs(
    std::span<const std::byte> data) {
  ByteReader r(data);
  std::vector<amr::GridDescriptor> descs(r.u64());
  for (auto& g : descs) {
    g.parent = r.u64();
    g.level = static_cast<int>(r.u32());
    for (double& e : g.left_edge) e = r.f64();
    for (double& e : g.right_edge) e = r.f64();
    for (auto& d : g.dims) d = r.u64();
  }
  return descs;
}

}  // namespace

EnzoSimulation::EnzoSimulation(mpi::Comm& comm, SimulationConfig config)
    : comm_(comm), universe_(config.seed, config.n_clumps) {
  state_.config = config;
  state_.proc_grid = amr::make_proc_grid(comm.size());
  state_.my_block =
      amr::block_of(config.root_dims, state_.proc_grid, comm.rank());
  state_.hierarchy.set_root(config.root_dims);
}

void EnzoSimulation::charge_compute(std::uint64_t cells) {
  double t = static_cast<double>(cells) * state_.config.compute_per_cell;
  if (t > 0.0) comm_.proc().advance(t, sim::TimeCategory::kCpu);
}

void EnzoSimulation::fill_block_fields() {
  amr::Grid block_grid;
  block_grid.desc = block_descriptor(state_.config.root_dims, state_.my_block);
  universe_.fill_fields(block_grid, state_.time);
  state_.my_fields = std::move(block_grid.fields);
  charge_compute(state_.my_block.cells());
}

void EnzoSimulation::rebuild_refinement() {
  state_.hierarchy.clear_subgrids();
  state_.my_subgrids.clear();
  const amr::RefineParams& rp = state_.config.refine;

  // Level-by-level: everyone proposes children for the grids (or root-grid
  // block) they hold, proposals are allgathered so the replicated hierarchy
  // stays identical, then the new level is balanced and its owners fill
  // their field data (needed to flag the next level).
  for (int level = 0; level < rp.max_level; ++level) {
    std::vector<amr::GridDescriptor> proposals;
    if (level == 0) {
      const amr::Array3f& density = state_.my_fields[0];
      auto flags = amr::flag_overdense(density, rp.threshold);
      for (const amr::CellBox& box : amr::cluster_flags(flags, rp)) {
        amr::GridDescriptor child = amr::make_child(
            state_.hierarchy.root(), state_.my_block.start, box,
            rp.refine_factor);
        proposals.push_back(child);
      }
    } else {
      // Deeper refinement demands ever-higher overdensity.
      double threshold = rp.threshold * (1 << (2 * level));
      for (const amr::Grid& g : state_.my_subgrids) {
        if (g.desc.level != level) continue;
        auto flags = amr::flag_overdense(g.fields[0], threshold);
        for (const amr::CellBox& box : amr::cluster_flags(flags, rp)) {
          proposals.push_back(amr::make_child(g.desc, {0, 0, 0}, box,
                                              rp.refine_factor));
        }
      }
    }
    charge_compute(level == 0 ? state_.my_block.cells() / 8 : 0);

    auto all = comm_.allgatherv(serialize_descs(proposals));
    std::vector<std::uint64_t> new_ids;
    for (const mpi::Bytes& b : all) {
      for (amr::GridDescriptor d : deserialize_descs(b)) {
        new_ids.push_back(state_.hierarchy.add_grid(d));
      }
    }
    if (new_ids.empty()) break;

    // Balance the new level and fill the owners' data.
    std::vector<std::uint64_t> weights;
    weights.reserve(new_ids.size());
    for (auto id : new_ids) {
      weights.push_back(state_.hierarchy.grid(id).cell_count());
    }
    std::vector<int> owners = amr::balance_greedy(weights, comm_.size());
    for (std::size_t i = 0; i < new_ids.size(); ++i) {
      state_.hierarchy.grid_mut(new_ids[i]).owner = owners[i];
    }
    for (std::size_t i = 0; i < new_ids.size(); ++i) {
      if (owners[i] != comm_.rank()) continue;
      amr::Grid grid;
      grid.desc = state_.hierarchy.grid(new_ids[i]);
      universe_.fill_fields(grid, state_.time);
      charge_compute(grid.desc.cell_count());
      state_.my_subgrids.push_back(std::move(grid));
    }
  }
}

void EnzoSimulation::initialize_from_universe() {
  fill_block_fields();

  // Particles: each rank samples its block's share, ids block-partitioned so
  // "the original order in which the particles were initially read" is the
  // id order.
  std::uint64_t total = state_.config.total_particles();
  auto [id_base, count] =
      amr::block_range(total, comm_.size(), comm_.rank());
  amr::GridDescriptor region =
      block_descriptor(state_.config.root_dims, state_.my_block);
  Rng rng(state_.config.seed * 1000003ULL +
          static_cast<std::uint64_t>(comm_.rank()));
  state_.my_particles = universe_.make_particles(
      count, static_cast<std::int64_t>(id_base), region, state_.time, rng);
  charge_compute(count / 4);

  state_.my_subgrids.clear();
  rebuild_refinement();
}

void EnzoSimulation::evolve_cycle() {
  state_.cycle += 1;
  state_.time += state_.config.dt;

  // "Hydro" update: refresh the analytic fields at the new time, then
  // synchronise boundary (ghost) zones with the face neighbours — ENZO's
  // per-cycle guard-cell traffic.
  fill_block_fields();
  {
    amr::GhostBlock gb(state_.my_block);
    gb.load_interior(state_.my_fields[0]);
    amr::exchange_ghost_zones(comm_, gb, state_.proc_grid);
  }

  // Particle push + the irregular repartition by position.
  amr::Universe::drift_particles(state_.my_particles, state_.config.dt);
  charge_compute(state_.my_particles.size() / 8);
  state_.my_particles = amr::redistribute_by_position(
      comm_, state_.my_particles, state_.config.root_dims, state_.proc_grid);

  // Star formation: spawn new particles in this rank's overdense cells.
  if (state_.config.star_formation_rate > 0.0) {
    form_stars();
  }

  // Refinement tracks the moved clumps; subgrids rebuilt and rebalanced.
  state_.my_subgrids.clear();
  rebuild_refinement();
}

void EnzoSimulation::form_stars() {
  // Global budget this cycle, split by rank share of the population; new
  // ids continue after the current global maximum so the "original order"
  // sort stays meaningful.
  std::uint64_t my_count = state_.my_particles.size();
  std::uint64_t total = comm_.allreduce_sum(my_count);
  std::uint64_t budget = static_cast<std::uint64_t>(
      state_.config.star_formation_rate * static_cast<double>(total));
  if (budget == 0) return;
  std::uint64_t max_id = comm_.allreduce_max(
      my_count > 0 ? static_cast<std::uint64_t>(
                         *std::max_element(state_.my_particles.id.begin(),
                                           state_.my_particles.id.end()))
                   : 0);
  // Deterministic per-rank share and id range (prefix by rank).
  auto [offset, mine] = amr::block_range(budget, comm_.size(), comm_.rank());
  if (mine == 0) return;
  amr::GridDescriptor region =
      block_descriptor(state_.config.root_dims, state_.my_block);
  Rng rng(state_.config.seed * 7919ULL + state_.cycle * 104729ULL +
          static_cast<std::uint64_t>(comm_.rank()));
  amr::ParticleSet stars = universe_.make_particles(
      mine, static_cast<std::int64_t>(max_id + 1 + offset), region,
      state_.time, rng);
  charge_compute(mine / 2);
  for (std::size_t i = 0; i < stars.size(); ++i) {
    state_.my_particles.append_from(stars, i);
  }
}

}  // namespace paramrio::enzo
