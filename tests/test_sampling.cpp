// Exact bounded rejection sampling: Universe::make_particles skips the
// density evaluations its per-cell bounds prove rejected, and must still
// return exactly the particles of plain rejection sampling.  The reference
// below is that plain sampler, written against the public clump list; the
// golden fingerprints were recorded from the sampler before the bounds
// existed.  Also covers the pieces the sampler rests on (Rng::discard,
// Universe::density_bound) and the heap-based balance_greedy, which must
// place grids exactly as the linear least-loaded scan did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "amr/load_balance.hpp"
#include "amr/particles_par.hpp"
#include "amr/universe.hpp"
#include "enzo/simulation.hpp"

namespace paramrio::amr {
namespace {

double wrap01(double v) { return v - std::floor(v); }

double torus_delta(double a, double b) {
  double d = a - b;
  d -= std::round(d);
  return d;
}

/// The universe's density and mean velocity, evaluated per point from the
/// clump parameters with no precomputation.
void reference_sample(const Universe& u, double z, double y, double x,
                      double t, double& rho, std::array<double, 3>& vel) {
  rho = 1.0;
  vel = {0.0, 0.0, 0.0};
  for (const Clump& c : u.clumps()) {
    double cz = wrap01(c.center[0] + c.drift[0] * t);
    double cy = wrap01(c.center[1] + c.drift[1] * t);
    double cx = wrap01(c.center[2] + c.drift[2] * t);
    double dz = torus_delta(z, cz);
    double dy = torus_delta(y, cy);
    double dx = torus_delta(x, cx);
    double r2 = dz * dz + dy * dy + dx * dx;
    double w = c.amplitude * (1.0 + c.growth * t) *
               std::exp(-r2 / (2.0 * c.width * c.width));
    rho += w;
    vel[0] += w * c.drift[0];
    vel[1] += w * c.drift[1];
    vel[2] += w * c.drift[2];
  }
  for (double& v : vel) v /= rho;
}

/// Plain rejection sampling against the domain peak: every trial evaluates
/// the density.
ParticleSet reference_particles(const Universe& u, std::uint64_t count,
                                std::int64_t id_base,
                                const GridDescriptor& region, double t,
                                Rng rng) {
  ParticleSet p;
  p.resize(count);
  double peak = 1.0;
  for (const Clump& c : u.clumps()) peak += c.amplitude * (1.0 + c.growth * t);
  for (std::uint64_t i = 0; i < count; ++i) {
    double z, y, x, rho;
    std::array<double, 3> vel;
    for (;;) {
      z = rng.next_in(region.left_edge[0], region.right_edge[0]);
      y = rng.next_in(region.left_edge[1], region.right_edge[1]);
      x = rng.next_in(region.left_edge[2], region.right_edge[2]);
      reference_sample(u, z, y, x, t, rho, vel);
      if (rng.next_double() * peak < rho) break;
    }
    p.id[i] = id_base + static_cast<std::int64_t>(i);
    p.pos[0][i] = z;
    p.pos[1][i] = y;
    p.pos[2][i] = x;
    for (std::size_t d = 0; d < 3; ++d) {
      p.vel[d][i] = vel[d] + 0.01 * rng.next_gaussian();
    }
    p.mass[i] = rho;
    p.attr[0][i] = static_cast<float>(t);
    p.attr[1][i] = static_cast<float>(rng.next_double());
  }
  return p;
}

GridDescriptor box(std::array<double, 3> lo, std::array<double, 3> hi) {
  GridDescriptor g;
  g.left_edge = lo;
  g.right_edge = hi;
  g.dims = {4, 4, 4};
  return g;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <class T>
std::uint64_t hash_vec(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t hash_particles(const ParticleSet& p) {
  std::uint64_t h = 1469598103934665603ULL;
  h = hash_vec(p.id, h);
  for (const auto& a : p.pos) h = hash_vec(a, h);
  for (const auto& a : p.vel) h = hash_vec(a, h);
  h = hash_vec(p.mass, h);
  for (const auto& a : p.attr) h = hash_vec(a, h);
  return h;
}

TEST(RngDiscard, MatchesRepeatedDraws) {
  for (std::uint64_t n : {0ULL, 1ULL, 3ULL, 4ULL, 1000ULL, 123457ULL}) {
    Rng stepped(99), skipped(99);
    for (std::uint64_t i = 0; i < n; ++i) stepped.next_u64();
    skipped.discard(n);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(stepped.next_u64(), skipped.next_u64()) << "n=" << n;
    }
  }
}

TEST(BoundedSampling, MatchesPlainRejectionSampling) {
  struct Case {
    std::uint64_t seed;
    int clumps;
    GridDescriptor region;
    double t;
    std::uint64_t count;
  };
  const std::vector<Case> cases = {
      {11, 3, box({0, 0, 0}, {1, 1, 1}), 0.0, 1500},
      {20020901, 12, box({0.25, 0.5, 0}, {0.5, 0.75, 0.25}), 0.0, 800},
      {20020901, 12, box({0.25, 0.5, 0}, {0.5, 0.75, 0.25}), 2.0, 800},
      {7, 48, box({0.6, 0, 0.1}, {0.6125, 1, 0.9}), 2.4, 300},  // thin slab
      {3, 1, box({0.4, 0.4, 0.4}, {0.401, 0.401, 0.401}), 0.4, 200},
      {5, 6, box({0.9375, 0, 0.9375}, {1, 0.0625, 1}), 1.2, 400},  // corner
      {8, 2, box({0, 0, 0}, {1, 1, 1}), 3.6, 1},
      {13, 24, box({0.5, 0.5, 0.5}, {0.5, 0.75, 0.75}), 0.8, 50},  // flat
  };
  for (const Case& c : cases) {
    Universe u(c.seed, c.clumps);
    const Rng rng(c.seed * 31 + 7);
    ParticleSet got = u.make_particles(c.count, 17, c.region, c.t, rng);
    ParticleSet want = reference_particles(u, c.count, 17, c.region, c.t, rng);
    EXPECT_EQ(got, want) << "seed " << c.seed << " clumps " << c.clumps
                         << " t " << c.t;
  }
}

TEST(BoundedSampling, EveryRankBlockMatchesPlainSampling) {
  // The ENZO initial condition's own shape: one block per rank of a 4x4x4
  // process grid, each with its own stream.
  Universe u(4242, 12);
  const std::array<std::uint64_t, 3> dims{32, 32, 32};
  const std::array<int, 3> grid = make_proc_grid(64);
  for (int rank = 0; rank < 64; ++rank) {
    const BlockExtent b = block_of(dims, grid, rank);
    GridDescriptor region;
    for (std::size_t d = 0; d < 3; ++d) {
      region.left_edge[d] = static_cast<double>(b.start[d]) / 32.0;
      region.right_edge[d] =
          static_cast<double>(b.start[d] + b.count[d]) / 32.0;
      region.dims[d] = b.count[d];
    }
    const Rng rng(4242 * 1000003ULL + static_cast<std::uint64_t>(rank));
    ASSERT_EQ(u.make_particles(64, rank * 64, region, 0.0, rng),
              reference_particles(u, 64, rank * 64, region, 0.0, rng))
        << "rank " << rank;
  }
}

// Fingerprints of the sampler's output recorded before the density bounds
// existed: any change to a drawn number, an accepted trial or a stored value
// moves them.
TEST(BoundedSampling, GoldenParticleFingerprints) {
  {
    Universe u(11, 3);
    EXPECT_EQ(hash_particles(u.make_particles(2000, 0, box({0, 0, 0}, {1, 1, 1}),
                                              0.0, Rng(5))),
              0x5cbee79e52a0a8bdULL);
  }
  {
    Universe u(20020901, 12);
    EXPECT_EQ(hash_particles(u.make_particles(
                  2048, 4096, box({0.25, 0.5, 0}, {0.5, 0.75, 0.25}), 0.0,
                  Rng(77))),
              0x4865cef1c3418c8fULL);
  }
  {
    Universe u(7, 48);
    EXPECT_EQ(hash_particles(u.make_particles(
                  500, 10, box({0.6, 0, 0.1}, {0.6125, 1, 0.9}), 2.4, Rng(9))),
              0xb053231b93ea0faeULL);
  }
}

TEST(BoundedSampling, GoldenSimulationParticles) {
  // Initial conditions plus two cycles of star formation on 8 ranks.
  const int nprocs = 8;
  mpi::RuntimeParams rp;
  rp.nprocs = nprocs;
  mpi::Runtime rt(rp);
  enzo::SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.n_clumps = 4;
  config.refine.threshold = 3.0;
  config.refine.min_box = 2;
  config.compute_per_cell = 0.0;
  config.star_formation_rate = 0.05;
  std::vector<ParticleSet> per_rank(static_cast<std::size_t>(nprocs));
  rt.run([&](mpi::Comm& comm) {
    enzo::EnzoSimulation sim(comm, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    sim.evolve_cycle();
    per_rank[static_cast<std::size_t>(comm.rank())] = sim.state().my_particles;
  });
  ParticleSet all;
  for (const ParticleSet& p : per_rank) {
    for (std::size_t i = 0; i < p.size(); ++i) all.append_from(p, i);
  }
  local_sort_by_id(all);
  EXPECT_EQ(all.size(), 1128u);
  EXPECT_EQ(hash_particles(all), 0x7c5f429100b032deULL);
}

TEST(Universe, GoldenFieldFingerprint) {
  Universe u(5, 9);
  Grid g;
  g.desc = box({0.125, 0.5, 0.75}, {0.5, 0.8125, 1.0});
  g.desc.dims = {12, 10, 8};
  u.fill_fields(g, 1.3);
  std::uint64_t h = 1469598103934665603ULL;
  for (const Array3f& f : g.fields) {
    h = fnv1a(f.data(), f.size() * sizeof(float), h);
  }
  EXPECT_EQ(h, 0x9c5a0b6a40276e38ULL);
  EXPECT_EQ(u.density(0.3, 0.6, 0.9, 1.3), 1.0239930360315128);
}

TEST(DensityBound, CapsEveryPointOfTheBox) {
  Rng pick(2024);
  for (int trial = 0; trial < 200; ++trial) {
    Universe u(pick.next_u64(), 1 + static_cast<int>(pick.next_below(24)));
    const double t = pick.next_in(0.0, 4.0);
    GridDescriptor region;
    for (std::size_t d = 0; d < 3; ++d) {
      // Mostly small boxes, some touching the periodic faces, some whole.
      const double extent = trial % 5 == 0 ? 1.0 : pick.next_in(1e-4, 0.5);
      const double lo = trial % 3 == 0 ? 1.0 - extent
                                       : pick.next_in(0.0, 1.0 - extent);
      region.left_edge[d] = lo;
      region.right_edge[d] = lo + extent;
    }
    const double bound = u.density_bound(region, t);
    auto check = [&](double z, double y, double x) {
      EXPECT_LE(u.density(z, y, x, t), bound) << "trial " << trial;
    };
    for (int i = 0; i < 400; ++i) {
      check(pick.next_in(region.left_edge[0], region.right_edge[0]),
            pick.next_in(region.left_edge[1], region.right_edge[1]),
            pick.next_in(region.left_edge[2], region.right_edge[2]));
    }
    for (int corner = 0; corner < 8; ++corner) {
      check(corner & 1 ? region.right_edge[0] : region.left_edge[0],
            corner & 2 ? region.right_edge[1] : region.left_edge[1],
            corner & 4 ? region.right_edge[2] : region.left_edge[2]);
    }
    // Each clump's nearest point, when it lies in the box, is where the
    // bound is nearly attained.
    for (const Clump& c : u.clumps()) {
      std::array<double, 3> at;
      bool inside = true;
      for (std::size_t d = 0; d < 3; ++d) {
        at[d] = wrap01(c.center[d] + c.drift[d] * t);
        inside = inside && at[d] >= region.left_edge[d] &&
                 at[d] <= region.right_edge[d];
      }
      if (inside) check(at[0], at[1], at[2]);
    }
  }
}

TEST(DensityBound, TightAwayFromClumpsAndWrapsPeriodically) {
  Universe u(31, 1);
  const Clump& c = u.clumps()[0];
  double peak = 1.0 + c.amplitude;
  // A box centred on the clump is bounded by its peak, one at the antipode
  // by barely more than the background.
  auto around = [&](double shift, double half) {
    GridDescriptor g;
    for (std::size_t d = 0; d < 3; ++d) {
      double mid = wrap01(c.center[d] + shift);
      g.left_edge[d] = std::max(0.0, mid - half);
      g.right_edge[d] = std::min(1.0, mid + half);
    }
    return g;
  };
  EXPECT_NEAR(u.density_bound(around(0.0, 0.01), 0.0), peak, 1e-4 * peak);
  EXPECT_LT(u.density_bound(around(0.5, 0.05), 0.0), 1.0 + 1e-6 * peak);
  // A box just across the periodic face from the clump still sees it.
  GridDescriptor across = around(0.0, 0.0);
  across.left_edge[0] = c.center[0] < 0.5 ? 0.99 : 0.0;
  across.right_edge[0] = c.center[0] < 0.5 ? 1.0 : 0.01;
  const double edge_z = c.center[0] < 0.5 ? 0.99999 : 0.00001;
  EXPECT_GE(u.density_bound(across, 0.0),
            u.density(edge_z, c.center[1], c.center[2], 0.0));
}

/// balance_greedy's placement rule as a linear scan: least-loaded rank,
/// lowest-numbered among equals.
std::vector<int> linear_scan_balance(const std::vector<std::uint64_t>& weights,
                                     int nprocs) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(nprocs), 0);
  std::vector<int> owner(weights.size(), 0);
  for (std::size_t i : order) {
    auto it = std::min_element(load.begin(), load.end());
    owner[i] = static_cast<int>(it - load.begin());
    *it += weights[i];
  }
  return owner;
}

TEST(LoadBalance, HeapPlacementMatchesLinearScan) {
  Rng rng(77);
  for (int nprocs : {1, 2, 3, 7, 64, 513}) {
    for (std::size_t n : {0UL, 1UL, 5UL, 100UL, 2000UL}) {
      std::vector<std::uint64_t> weights(n);
      // Few distinct weights, so ties in both weight and load are common.
      for (auto& w : weights) w = 8 * (1 + rng.next_below(4));
      EXPECT_EQ(balance_greedy(weights, nprocs),
                linear_scan_balance(weights, nprocs))
          << nprocs << " procs, " << n << " grids";
    }
  }
}

}  // namespace
}  // namespace paramrio::amr
