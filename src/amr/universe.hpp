// The synthetic "universe": a deterministic analytic stand-in for the
// cosmology (PPM hydro + N-body gravity) that real ENZO solves.
//
// The paper uses ENZO purely as an I/O-pattern generator, so the substitute
// only has to produce (a) smooth baryon fields whose high-density regions
// move and grow over time — driving realistic adaptive refinement — and
// (b) particles whose positions drift — driving the irregular 1-D access
// patterns.  A sum of drifting, growing Gaussian clumps over a uniform
// background does both, bit-reproducibly from a seed.
#pragma once

#include <array>
#include <cstdint>

#include "amr/grid.hpp"
#include "base/rng.hpp"

namespace paramrio::amr {

struct Clump {
  std::array<double, 3> center{0, 0, 0};  ///< at t = 0, domain units
  std::array<double, 3> drift{0, 0, 0};   ///< domain units per unit time
  double amplitude = 8.0;                 ///< overdensity at the centre
  double growth = 0.5;                    ///< amplitude growth rate
  double width = 0.05;                    ///< Gaussian sigma, domain units
};

class Universe {
 public:
  Universe(std::uint64_t seed, int n_clumps);

  /// Overdensity (>= 1) at a point, at time t.  Positions wrap periodically.
  double density(double z, double y, double x, double t) const;

  /// An upper bound on density() at every point of the closed box `region`
  /// at time t: each clump counts at the box point nearest its centre.
  double density_bound(const GridDescriptor& region, double t) const;

  /// Fill all baryon fields of `grid` (whose descriptor fixes the geometry)
  /// with the analytic state at time t.  Field values are deterministic
  /// functions of (position, t), so refined grids resample consistently.
  void fill_fields(Grid& grid, double t) const;

  /// Create `count` particles inside `region`, positions biased toward
  /// dense areas by rejection sampling against the domain's peak density;
  /// ids start at `id_base`.  Trials that per-cell density bounds prove
  /// rejected skip the density evaluation, but every trial draws the same
  /// numbers, so the particles are those of plain rejection sampling.
  ParticleSet make_particles(std::uint64_t count, std::int64_t id_base,
                             const GridDescriptor& region, double t,
                             Rng rng) const;

  /// Advance particle positions by their velocities (periodic wrap).
  static void drift_particles(ParticleSet& particles, double dt);

  const std::vector<Clump>& clumps() const { return clumps_; }

 private:
  std::vector<Clump> clumps_;
};

}  // namespace paramrio::amr
