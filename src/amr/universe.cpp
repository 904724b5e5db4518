#include "amr/universe.hpp"

#include <algorithm>
#include <cmath>

namespace paramrio::amr {

namespace {
double wrap01(double v) { return v - std::floor(v); }

/// Minimum-image distance on the unit torus.
double torus_delta(double a, double b) {
  double d = a - b;
  d -= std::round(d);
  return d;
}

/// A clump's state at one time t, hoisted out of the per-point loops.  Each
/// member is the exact expression the point loop used to evaluate inline, so
/// densities and velocities are bit-identical to evaluating them per point.
struct ClumpAt {
  std::array<double, 3> center;  ///< wrap01(center + drift * t)
  std::array<double, 3> drift;
  double peak;     ///< amplitude * (1 + growth * t): the value at the centre
  double two_var;  ///< 2 * width^2
};

std::vector<ClumpAt> clumps_at(const std::vector<Clump>& clumps, double t) {
  std::vector<ClumpAt> at;
  at.reserve(clumps.size());
  for (const Clump& c : clumps) {
    ClumpAt a;
    for (std::size_t d = 0; d < 3; ++d) {
      a.center[d] = wrap01(c.center[d] + c.drift[d] * t);
    }
    a.drift = c.drift;
    a.peak = c.amplitude * (1.0 + c.growth * t);
    a.two_var = 2.0 * c.width * c.width;
    at.push_back(a);
  }
  return at;
}

/// Density plus the clump-weighted mean drift velocity at a point.
void sample(const std::vector<ClumpAt>& clumps, double z, double y, double x,
            double& rho, std::array<double, 3>& vel) {
  rho = 1.0;
  vel = {0.0, 0.0, 0.0};
  for (const ClumpAt& c : clumps) {
    double dz = torus_delta(z, c.center[0]);
    double dy = torus_delta(y, c.center[1]);
    double dx = torus_delta(x, c.center[2]);
    double r2 = dz * dz + dy * dy + dx * dx;
    double w = c.peak * std::exp(-r2 / c.two_var);
    rho += w;
    vel[0] += w * c.drift[0];
    vel[1] += w * c.drift[1];
    vel[2] += w * c.drift[2];
  }
  for (double& v : vel) v /= rho;
}

// Slack that makes density bounds hold for the *computed* density, not just
// the exact one: the distance slack exceeds any rounding in a drawn
// coordinate or in torus_delta (~1e-16), the relative slack any rounding in
// exp() and the sums (~1e-14).  Both loosen the bound by a negligible amount.
constexpr double kDistanceSlack = 1e-9;
constexpr double kRelativeSlack = 1e-6;

/// Smallest periodic distance from `c` to a point of the closed interval
/// [lo, hi] on the unit circle, less kDistanceSlack (floored at 0).
double interval_distance(double lo, double hi, double c) {
  const double extent = hi - lo;
  if (extent >= 1.0) return 0.0;
  const double a = wrap01(c - lo);  // c's offset past lo, going up
  if (a <= extent) return 0.0;
  const double d = std::min(a - extent, 1.0 - a);
  return std::max(0.0, d - kDistanceSlack);
}

/// Per-cell density ceilings over a box, for exact rejection sampling: the
/// box is cut into a grid of cells and each cell stores an upper bound on
/// the computed density at any point in it.  Each clump contributes its
/// value at the cell point nearest its centre; the Gaussian separates per
/// axis, so a grid of nz*ny*nx cells costs only (nz+ny+nx) exp() per clump.
class DensityCeiling {
 public:
  DensityCeiling(const std::vector<ClumpAt>& clumps, const GridDescriptor& box,
                 std::uint64_t max_cells) {
    // Cells about half the narrowest clump's width, so a bound is within a
    // small factor of the density it caps, but not many more cells than
    // `max_cells` (the particles they serve): building a cell must not cost
    // more than the density evaluations it can save.
    double narrowest = 1.0;
    for (const ClumpAt& c : clumps) {
      narrowest = std::min(narrowest, std::sqrt(0.5 * c.two_var));
    }
    double volume = 1.0;
    for (std::size_t d = 0; d < 3; ++d) {
      lo_[d] = box.left_edge[d];
      volume *= std::max(0.0, box.right_edge[d] - box.left_edge[d]);
    }
    const double side = std::max(
        0.5 * narrowest,
        std::cbrt(volume / static_cast<double>(std::max<std::uint64_t>(
                               1, max_cells))));
    std::array<std::vector<double>, 3> edges;
    for (std::size_t d = 0; d < 3; ++d) {
      const double extent = box.right_edge[d] - box.left_edge[d];
      const double want = extent > 0.0 ? std::ceil(extent / side) : 1.0;
      n_[d] = static_cast<std::size_t>(std::clamp(want, 1.0, kMaxPerAxis));
      scale_[d] = extent > 0.0 ? static_cast<double>(n_[d]) / extent : 0.0;
      edges[d].resize(n_[d] + 1);
      for (std::size_t j = 0; j <= n_[d]; ++j) {
        edges[d][j] = j == n_[d] ? box.right_edge[d]
                                 : box.left_edge[d] +
                                       extent * static_cast<double>(j) /
                                           static_cast<double>(n_[d]);
      }
    }

    ceiling_.assign(n_[0] * n_[1] * n_[2], 1.0);
    std::array<std::vector<double>, 3> factor;
    for (const ClumpAt& c : clumps) {
      for (std::size_t d = 0; d < 3; ++d) {
        factor[d].resize(n_[d]);
        for (std::size_t j = 0; j < n_[d]; ++j) {
          const double dist =
              interval_distance(edges[d][j], edges[d][j + 1], c.center[d]);
          factor[d][j] = std::exp(-(dist * dist) / c.two_var);
        }
      }
      double* cell = ceiling_.data();
      for (std::size_t iz = 0; iz < n_[0]; ++iz) {
        for (std::size_t iy = 0; iy < n_[1]; ++iy) {
          const double fzy = c.peak * factor[0][iz] * factor[1][iy];
          for (std::size_t ix = 0; ix < n_[2]; ++ix) {
            *cell++ += fzy * factor[2][ix];
          }
        }
      }
    }
    max_ = 1.0;
    for (double& b : ceiling_) {
      b *= 1.0 + kRelativeSlack;
      max_ = std::max(max_, b);
    }
  }

  /// Bound over the whole box.
  double max() const { return max_; }

  /// Bound over the cell holding (z, y, x), a point of the box.
  double at(double z, double y, double x) const {
    return ceiling_[(index(0, z) * n_[1] + index(1, y)) * n_[2] + index(2, x)];
  }

 private:
  // Caps the grid at 64^3 cells (2 MiB) however large the box.
  static constexpr double kMaxPerAxis = 64.0;

  std::size_t index(std::size_t d, double v) const {
    // A coordinate that rounds into a neighbouring cell is within the
    // distance slack of this one, so either cell's bound holds for it.
    const double f = (v - lo_[d]) * scale_[d];
    return f > 0.0 ? std::min(n_[d] - 1, static_cast<std::size_t>(f)) : 0;
  }

  std::array<double, 3> lo_{};
  std::array<double, 3> scale_{};
  std::array<std::size_t, 3> n_{};
  std::vector<double> ceiling_;
  double max_ = 1.0;
};

}  // namespace

Universe::Universe(std::uint64_t seed, int n_clumps) {
  PARAMRIO_REQUIRE(n_clumps >= 1, "Universe: need at least one clump");
  Rng rng(seed);
  clumps_.reserve(static_cast<std::size_t>(n_clumps));
  for (int i = 0; i < n_clumps; ++i) {
    Clump c;
    for (int d = 0; d < 3; ++d) {
      c.center[static_cast<std::size_t>(d)] = rng.next_double();
      c.drift[static_cast<std::size_t>(d)] = rng.next_in(-0.05, 0.05);
    }
    c.amplitude = rng.next_in(6.0, 14.0);
    c.growth = rng.next_in(0.2, 0.8);
    c.width = rng.next_in(0.03, 0.08);
    clumps_.push_back(c);
  }
}

double Universe::density(double z, double y, double x, double t) const {
  double rho;
  std::array<double, 3> vel;
  sample(clumps_at(clumps_, t), z, y, x, rho, vel);
  return rho;
}

double Universe::density_bound(const GridDescriptor& region, double t) const {
  return DensityCeiling(clumps_at(clumps_, t), region, 1).max();
}

void Universe::fill_fields(Grid& grid, double t) const {
  if (grid.fields.empty()) grid.allocate_fields();
  const std::vector<ClumpAt> clumps = clumps_at(clumps_, t);
  const GridDescriptor& g = grid.desc;
  const double wz = g.cell_width(0), wy = g.cell_width(1),
               wx = g.cell_width(2);
  for (std::uint64_t iz = 0; iz < g.dims[0]; ++iz) {
    double z = g.left_edge[0] + (static_cast<double>(iz) + 0.5) * wz;
    for (std::uint64_t iy = 0; iy < g.dims[1]; ++iy) {
      double y = g.left_edge[1] + (static_cast<double>(iy) + 0.5) * wy;
      for (std::uint64_t ix = 0; ix < g.dims[2]; ++ix) {
        double x = g.left_edge[2] + (static_cast<double>(ix) + 0.5) * wx;
        double rho;
        std::array<double, 3> vel;
        sample(clumps, z, y, x, rho, vel);
        double v2 =
            vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2];
        double internal = 1.0 / rho;  // crude "pressure equilibrium"
        grid.fields[0].at(iz, iy, ix) = static_cast<float>(rho);
        grid.fields[1].at(iz, iy, ix) =
            static_cast<float>(internal + 0.5 * v2);       // total_energy
        grid.fields[2].at(iz, iy, ix) =
            static_cast<float>(internal);                  // internal_energy
        grid.fields[3].at(iz, iy, ix) = static_cast<float>(vel[2]);  // vx
        grid.fields[4].at(iz, iy, ix) = static_cast<float>(vel[1]);  // vy
        grid.fields[5].at(iz, iy, ix) = static_cast<float>(vel[0]);  // vz
        grid.fields[6].at(iz, iy, ix) =
            static_cast<float>(std::pow(rho, 2.0 / 3.0));  // temperature
        grid.fields[7].at(iz, iy, ix) =
            static_cast<float>(5.0 * (rho - 1.0));         // dark_matter
      }
    }
  }
}

ParticleSet Universe::make_particles(std::uint64_t count,
                                     std::int64_t id_base,
                                     const GridDescriptor& region, double t,
                                     Rng rng) const {
  ParticleSet p;
  p.resize(count);
  const std::vector<ClumpAt> clumps = clumps_at(clumps_, t);
  // Peak density estimate for rejection sampling.
  double peak = 1.0;
  for (const ClumpAt& c : clumps) peak += c.peak;
  const DensityCeiling ceiling(clumps, region, count);

  // A trial draws z, y, x, then u, and accepts iff u * peak < rho(z, y, x).
  // No rho can exceed its cell's ceiling, so a trial whose u * peak reaches
  // the ceiling is a rejection known without evaluating rho: the box-wide
  // ceiling screens u alone (read three draws ahead; SplitMix64 skips in
  // O(1)), the cell's ceiling screens the point.  Every trial consumes the
  // same four draws and passes the same final test as plain rejection
  // sampling, so the particles are bit-identical to it; only the density
  // evaluations that could not accept are skipped.
  for (std::uint64_t i = 0; i < count; ++i) {
    double z, y, x, rho;
    std::array<double, 3> vel;
    for (;;) {
      Rng after = rng;
      after.discard(3);
      const double u = after.next_double();
      if (u * peak >= ceiling.max()) {
        rng = after;
        continue;
      }
      z = rng.next_in(region.left_edge[0], region.right_edge[0]);
      y = rng.next_in(region.left_edge[1], region.right_edge[1]);
      x = rng.next_in(region.left_edge[2], region.right_edge[2]);
      rng = after;
      if (u * peak >= ceiling.at(z, y, x)) continue;
      sample(clumps, z, y, x, rho, vel);
      if (u * peak < rho) break;
    }
    p.id[i] = id_base + static_cast<std::int64_t>(i);
    p.pos[0][i] = z;
    p.pos[1][i] = y;
    p.pos[2][i] = x;
    for (int d = 0; d < 3; ++d) {
      p.vel[static_cast<std::size_t>(d)][i] =
          vel[static_cast<std::size_t>(d)] + 0.01 * rng.next_gaussian();
    }
    p.mass[i] = rho;
    p.attr[0][i] = static_cast<float>(t);
    p.attr[1][i] = static_cast<float>(rng.next_double());
  }
  return p;
}

void Universe::drift_particles(ParticleSet& particles, double dt) {
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto ud = static_cast<std::size_t>(d);
      particles.pos[ud][i] =
          wrap01(particles.pos[ud][i] + particles.vel[ud][i] * dt);
    }
  }
}

}  // namespace paramrio::amr
