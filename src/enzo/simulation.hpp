// The ENZO-style cosmology simulation driver: initialise from the synthetic
// universe, evolve the grid hierarchy cycle by cycle (fields update,
// particles drift and redistribute, refinement regions track the moving
// clumps, subgrids are load-balanced), and hand the state to an I/O backend
// for checkpoint dumps and restarts.
#pragma once

#include "amr/universe.hpp"
#include "enzo/state.hpp"
#include "mpi/comm.hpp"

namespace paramrio::enzo {

class EnzoSimulation {
 public:
  EnzoSimulation(mpi::Comm& comm, SimulationConfig config);

  /// Build the t=0 state directly from the universe model: block-partitioned
  /// root fields, particles sampled per block, initial refinement, load
  /// balance.  (Used by the initial-conditions generator and by tests; a
  /// production run starts via IoBackend::read_initial instead.)
  void initialize_from_universe();

  /// One evolution cycle: advance time, recompute fields, drift and
  /// redistribute particles, rebuild refinement, rebalance subgrids.
  void evolve_cycle();

  SimulationState& state() { return state_; }
  const SimulationState& state() const { return state_; }
  mpi::Comm& comm() { return comm_; }
  const amr::Universe& universe() const { return universe_; }

  /// Recompute the refinement hierarchy from the current fields (exposed
  /// for tests).  Deterministic and identical on every rank.
  void rebuild_refinement();

 private:
  void fill_block_fields();
  void form_stars();
  void charge_compute(std::uint64_t cells);

  mpi::Comm& comm_;
  SimulationState state_;
  amr::Universe universe_;
};

}  // namespace paramrio::enzo
