// Unit tests for the AMR substrate: arrays, decomposition, hierarchy,
// universe, refinement, load balancing, particle utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "amr/blocking.hpp"
#include "amr/decomp.hpp"
#include "amr/hierarchy.hpp"
#include "amr/load_balance.hpp"
#include "amr/particles_par.hpp"
#include "amr/refine.hpp"
#include "amr/universe.hpp"

namespace paramrio::amr {
namespace {

TEST(Array3, IndexingAndBytes) {
  Array3<float> a(2, 3, 4);
  EXPECT_EQ(a.size(), 24u);
  a.at(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(a.data()[(1 * 3 + 2) * 4 + 3], 7.5f);
  EXPECT_EQ(a.bytes().size(), 24u * 4);
}

class ProcGridSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProcGridSweep, FactorisationCoversAllRanks) {
  int p = GetParam();
  auto g = make_proc_grid(p);
  EXPECT_EQ(g[0] * g[1] * g[2], p);
  // Balanced: max/min ratio bounded (within a factor of the largest prime).
  EXPECT_LE(g[0], p);
  // Every rank gets unique coords.
  std::set<std::array<int, 3>> seen;
  for (int r = 0; r < p; ++r) seen.insert(proc_coords(g, r));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(p));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProcGridSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                           64));

TEST(Decomp, BlockRangePartitionsExactly) {
  // 10 cells over 3 parts: 4,3,3.
  EXPECT_EQ(block_range(10, 3, 0), (std::array<std::uint64_t, 2>{0, 4}));
  EXPECT_EQ(block_range(10, 3, 1), (std::array<std::uint64_t, 2>{4, 3}));
  EXPECT_EQ(block_range(10, 3, 2), (std::array<std::uint64_t, 2>{7, 3}));
}

TEST(Decomp, BlockPartOfInvertsBlockRange) {
  for (std::uint64_t n : {7u, 10u, 16u, 64u}) {
    for (int parts : {1, 2, 3, 5, 8}) {
      for (int p = 0; p < parts; ++p) {
        auto [s, c] = block_range(n, parts, p);
        for (std::uint64_t i = s; i < s + c; ++i) {
          EXPECT_EQ(block_part_of(n, parts, i), p);
        }
      }
    }
  }
}

TEST(Decomp, BlocksTileTheGrid) {
  std::array<std::uint64_t, 3> dims{16, 12, 20};
  auto g = make_proc_grid(12);
  std::uint64_t total = 0;
  for (int r = 0; r < 12; ++r) {
    total += block_of(dims, g, r).cells();
  }
  EXPECT_EQ(total, 16u * 12 * 20);
}

TEST(Blocking, CopyOutInRoundTrip) {
  Array3<float> full(8, 8, 8);
  for (std::uint64_t i = 0; i < full.size(); ++i) {
    full.data()[i] = static_cast<float>(i);
  }
  BlockExtent e;
  e.start = {2, 3, 1};
  e.count = {4, 2, 5};
  std::vector<float> buf(e.cells());
  copy_block_out(full, e, buf.data());
  EXPECT_FLOAT_EQ(buf[0], full.at(2, 3, 1));
  Array3<float> dst(8, 8, 8);
  copy_block_in(dst, e, buf.data());
  for (std::uint64_t z = 2; z < 6; ++z) {
    for (std::uint64_t y = 3; y < 5; ++y) {
      for (std::uint64_t x = 1; x < 6; ++x) {
        EXPECT_FLOAT_EQ(dst.at(z, y, x), full.at(z, y, x));
      }
    }
  }
}

TEST(Hierarchy, RootAndChildren) {
  Hierarchy h;
  h.set_root({64, 64, 64});
  EXPECT_EQ(h.grid_count(), 1u);
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0.25, 0.25, 0.25};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {32, 32, 32};
  std::uint64_t id = h.add_grid(c);
  EXPECT_EQ(h.children(0), std::vector<std::uint64_t>{id});
  EXPECT_EQ(h.grid(id).level, 1);
  EXPECT_EQ(h.max_level(), 1);
  EXPECT_EQ(h.total_cells(), 64ull * 64 * 64 + 32ull * 32 * 32);
}

TEST(Hierarchy, RejectsBadNesting) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 2;  // skips a level
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  EXPECT_THROW(h.add_grid(c), LogicError);
  c.level = 1;
  c.right_edge = {1.5, 0.5, 0.5};  // outside the parent
  EXPECT_THROW(h.add_grid(c), LogicError);
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {0, 8, 8};
  EXPECT_THROW(h.add_grid(c), LogicError);
}

TEST(Hierarchy, SerializeRoundTrip) {
  Hierarchy h;
  h.set_root({32, 32, 32});
  for (int i = 0; i < 5; ++i) {
    GridDescriptor c;
    c.level = 1;
    c.parent = 0;
    c.left_edge = {0.1 * i, 0.0, 0.0};
    c.right_edge = {0.1 * i + 0.1, 0.25, 0.25};
    c.dims = {8, 16, 16};
    c.owner = i % 3;
    h.add_grid(c);
  }
  Hierarchy back = Hierarchy::deserialize(h.serialize());
  EXPECT_EQ(h, back);
  EXPECT_EQ(back.children(0).size(), 5u);
  for (std::uint64_t id = 0; id <= 5; ++id) {
    EXPECT_EQ(back.grid(id).id, id);
  }
  EXPECT_FALSE(back.has(6));
}

TEST(Hierarchy, DeserializeRejectsIdsOutOfOrder) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  h.add_grid(c);
  c.left_edge = {0.5, 0.5, 0.5};
  c.right_edge = {1, 1, 1};
  h.add_grid(c);
  // Wire format: u64 count, u64 next id, then 96 bytes per grid, id first.
  auto with_id = [&](std::size_t grid, std::uint64_t id) {
    std::vector<std::byte> blob = h.serialize();
    std::memcpy(blob.data() + 16 + 96 * grid, &id, sizeof id);
    return blob;
  };
  EXPECT_EQ(Hierarchy::deserialize(with_id(2, 9)).grid(9).id, 9u);
  EXPECT_THROW(Hierarchy::deserialize(with_id(2, 1)), LogicError);  // repeat
  EXPECT_THROW(Hierarchy::deserialize(with_id(1, 3)), LogicError);  // descends
  EXPECT_THROW(Hierarchy::deserialize(with_id(0, 4)), LogicError);  // root
}

TEST(Hierarchy, ClearSubgridsKeepsRootAndIdMonotonicity) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  std::uint64_t id1 = h.add_grid(c);
  h.clear_subgrids();
  EXPECT_EQ(h.grid_count(), 1u);
  std::uint64_t id2 = h.add_grid(c);
  EXPECT_GT(id2, id1);  // ids never recycled
}

TEST(Universe, DeterministicAndPositive) {
  Universe a(42, 8), b(42, 8);
  for (int i = 0; i < 20; ++i) {
    double z = 0.05 * i, y = 0.97 - 0.04 * i, x = 0.33;
    EXPECT_DOUBLE_EQ(a.density(z, y, x, 1.0), b.density(z, y, x, 1.0));
    EXPECT_GE(a.density(z, y, x, 1.0), 1.0);
  }
}

TEST(Universe, ClumpsCreateOverdensity) {
  Universe u(7, 4);
  const Clump& c = u.clumps()[0];
  double at_center = u.density(c.center[0], c.center[1], c.center[2], 0.0);
  EXPECT_GT(at_center, 4.0);  // amplitude >= 6 at the centre
}

TEST(Universe, GrowthIncreasesPeakDensityOverTime) {
  Universe u(7, 4);
  const Clump& c = u.clumps()[1];
  // Track the clump as it drifts.
  auto peak_at = [&](double t) {
    double z = c.center[0] + c.drift[0] * t;
    double y = c.center[1] + c.drift[1] * t;
    double x = c.center[2] + c.drift[2] * t;
    return u.density(z - std::floor(z), y - std::floor(y), x - std::floor(x),
                     t);
  };
  EXPECT_GT(peak_at(2.0), peak_at(0.0));
}

TEST(Universe, FillFieldsPopulatesAllFields) {
  Universe u(3, 6);
  Grid g;
  g.desc.dims = {8, 8, 8};
  u.fill_fields(g, 0.5);
  ASSERT_EQ(g.fields.size(), static_cast<std::size_t>(kNumBaryonFields));
  // density positive, temperature = rho^(2/3) consistent.
  for (std::uint64_t z = 0; z < 8; ++z) {
    float rho = g.fields[0].at(z, 4, 4);
    EXPECT_GT(rho, 0.0f);
    EXPECT_NEAR(g.fields[6].at(z, 4, 4), std::pow(rho, 2.0f / 3.0f), 0.01);
  }
}

TEST(Universe, ParticlesBiasedTowardDensity) {
  Universe u(11, 3);
  GridDescriptor whole;
  whole.dims = {16, 16, 16};
  ParticleSet p = u.make_particles(2000, 0, whole, 0.0, Rng(5));
  ASSERT_EQ(p.size(), 2000u);
  // Mean sampled density must exceed the domain average (importance bias).
  double mean_rho = 0;
  for (double m : p.mass) mean_rho += m;
  mean_rho /= static_cast<double>(p.size());
  // Domain mean density.
  double domain_mean = 0;
  int samples = 0;
  for (double z = 0.05; z < 1; z += 0.2) {
    for (double y = 0.05; y < 1; y += 0.2) {
      for (double x = 0.05; x < 1; x += 0.2) {
        domain_mean += u.density(z, y, x, 0.0);
        ++samples;
      }
    }
  }
  domain_mean /= samples;
  EXPECT_GT(mean_rho, domain_mean);
  // Ids sequential from base.
  EXPECT_EQ(p.id[0], 0);
  EXPECT_EQ(p.id[1999], 1999);
}

TEST(Universe, DriftWrapsPositions) {
  ParticleSet p;
  p.resize(1);
  p.pos = {{{0.95}, {0.5}, {0.02}}};
  p.vel = {{{0.2}, {0.0}, {-0.1}}};
  Universe::drift_particles(p, 1.0);
  EXPECT_NEAR(p.pos[0][0], 0.15, 1e-12);
  EXPECT_NEAR(p.pos[1][0], 0.5, 1e-12);
  EXPECT_NEAR(p.pos[2][0], 0.92, 1e-12);
}

TEST(Refine, FlagAndClusterSingleBlob) {
  Array3f density(16, 16, 16, 1.0f);
  for (std::uint64_t z = 4; z < 8; ++z) {
    for (std::uint64_t y = 5; y < 9; ++y) {
      for (std::uint64_t x = 6; x < 10; ++x) {
        density.at(z, y, x) = 10.0f;
      }
    }
  }
  auto flags = flag_overdense(density, 4.0);
  RefineParams rp;
  auto boxes = cluster_flags(flags, rp);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].start, (std::array<std::uint64_t, 3>{4, 5, 6}));
  EXPECT_EQ(boxes[0].count, (std::array<std::uint64_t, 3>{4, 4, 4}));
}

TEST(Refine, TwoSeparatedBlobsYieldTwoBoxes) {
  Array3f density(32, 32, 32, 1.0f);
  auto blob = [&](std::uint64_t cz, std::uint64_t cy, std::uint64_t cx) {
    for (std::uint64_t z = cz; z < cz + 4; ++z) {
      for (std::uint64_t y = cy; y < cy + 4; ++y) {
        for (std::uint64_t x = cx; x < cx + 4; ++x) {
          density.at(z, y, x) = 9.0f;
        }
      }
    }
  };
  blob(2, 2, 2);
  blob(24, 24, 24);
  auto boxes = cluster_flags(flag_overdense(density, 4.0), RefineParams{});
  EXPECT_EQ(boxes.size(), 2u);
  // Together they must cover exactly the flagged cells (128).
  std::uint64_t covered = 0;
  for (const auto& b : boxes) covered += b.cells();
  EXPECT_GE(covered, 128u);
  EXPECT_LE(covered, 256u);  // boxes stay tight
}

TEST(Refine, NoFlagsNoBoxes) {
  Array3f density(8, 8, 8, 1.0f);
  auto boxes = cluster_flags(flag_overdense(density, 4.0), RefineParams{});
  EXPECT_TRUE(boxes.empty());
}

TEST(Refine, MakeChildGeometryAndResolution) {
  GridDescriptor parent;
  parent.id = 0;
  parent.dims = {16, 16, 16};
  CellBox box;
  box.start = {4, 0, 8};
  box.count = {4, 8, 4};
  GridDescriptor child = make_child(parent, {0, 0, 0}, box, 2);
  EXPECT_EQ(child.level, 1);
  EXPECT_EQ(child.dims, (std::array<std::uint64_t, 3>{8, 16, 8}));
  EXPECT_DOUBLE_EQ(child.left_edge[0], 4.0 / 16.0);
  EXPECT_DOUBLE_EQ(child.right_edge[0], 8.0 / 16.0);
  // Child cell width is half the parent's.
  EXPECT_DOUBLE_EQ(child.cell_width(0), parent.cell_width(0) / 2.0);
}

TEST(LoadBalance, GreedyIsBalancedAndDeterministic) {
  std::vector<std::uint64_t> w = {100, 90, 50, 50, 40, 30, 20, 10, 5, 5};
  auto o1 = balance_greedy(w, 3);
  auto o2 = balance_greedy(w, 3);
  EXPECT_EQ(o1, o2);
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    load[static_cast<std::size_t>(o1[i])] += w[i];
  }
  std::uint64_t total = std::accumulate(w.begin(), w.end(), 0ull);
  auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx - *mn, total / 3);  // roughly even
}

TEST(LoadBalance, AssignOwnersSkipsRoot) {
  Hierarchy h;
  h.set_root({8, 8, 8});
  GridDescriptor c;
  c.level = 1;
  c.parent = 0;
  c.left_edge = {0, 0, 0};
  c.right_edge = {0.5, 0.5, 0.5};
  c.dims = {8, 8, 8};
  h.add_grid(c);
  h.add_grid(c);
  auto load = assign_owners(h, 2);
  EXPECT_EQ(load.size(), 2u);
  EXPECT_EQ(load[0] + load[1], 2u * 8 * 8 * 8);
}

TEST(Particles, PackUnpackRoundTrip) {
  ParticleSet p;
  p.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    p.id[i] = static_cast<std::int64_t>(100 + i);
    for (int d = 0; d < 3; ++d) {
      p.pos[static_cast<std::size_t>(d)][i] = 0.1 * (i + 1) + 0.01 * d;
      p.vel[static_cast<std::size_t>(d)][i] = -0.2 * (i + 1);
    }
    p.mass[i] = 2.5 * (i + 1);
    p.attr[0][i] = static_cast<float>(i);
    p.attr[1][i] = static_cast<float>(i * i);
  }
  auto bytes = pack_particles(p);
  ParticleSet q;
  unpack_particles(bytes, q);
  EXPECT_EQ(p, q);
}

TEST(Particles, PackSubsetSelects) {
  ParticleSet p;
  p.resize(5);
  for (std::size_t i = 0; i < 5; ++i) p.id[i] = static_cast<std::int64_t>(i);
  auto bytes = pack_particles(p, {1, 3});
  ParticleSet q;
  unpack_particles(bytes, q);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.id[0], 1);
  EXPECT_EQ(q.id[1], 3);
}

TEST(Particles, LocalSortByIdPermutesAllArrays) {
  ParticleSet p;
  p.resize(4);
  p.id = {30, 10, 40, 20};
  for (std::size_t i = 0; i < 4; ++i) {
    p.mass[i] = static_cast<double>(p.id[i]);
    p.attr[0][i] = static_cast<float>(p.id[i]);
  }
  local_sort_by_id(p);
  EXPECT_EQ(p.id, (std::vector<std::int64_t>{10, 20, 30, 40}));
  EXPECT_DOUBLE_EQ(p.mass[0], 10.0);
  EXPECT_FLOAT_EQ(p.attr[0][3], 40.0f);
}

TEST(Particles, RankOfPositionMatchesBlockOwnership) {
  std::array<std::uint64_t, 3> dims{16, 16, 16};
  auto grid = make_proc_grid(8);
  // For every rank, the centre of its block must map back to it.
  for (int r = 0; r < 8; ++r) {
    BlockExtent e = block_of(dims, grid, r);
    std::array<double, 3> centre;
    for (int d = 0; d < 3; ++d) {
      auto u = static_cast<std::size_t>(d);
      centre[u] = (static_cast<double>(e.start[u]) +
                   static_cast<double>(e.count[u]) / 2.0) /
                  static_cast<double>(dims[u]);
    }
    EXPECT_EQ(rank_of_position(centre, dims, grid), r);
  }
}

}  // namespace
}  // namespace paramrio::amr
