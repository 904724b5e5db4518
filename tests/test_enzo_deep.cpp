// Deeper application tests: multi-level refinement hierarchies, partitioning
// of subgrids smaller than the processor grid, and cross-backend byte
// accounting.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "amr/particles_par.hpp"
#include "enzo/backends.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/dump_inspect.hpp"
#include "enzo/hierarchy_file.hpp"
#include "enzo/simulation.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio::enzo {
namespace {

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

TEST(DeepHierarchy, TwoRefinementLevelsFormAndRoundTrip) {
  SimulationConfig config;
  config.root_dims = {32, 32, 32};
  config.particles_per_cell = 0.125;
  config.refine.max_level = 2;
  config.refine.threshold = 2.5;
  config.refine.min_box = 2;
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(4));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    const auto& h = sim.state().hierarchy;
    EXPECT_GE(h.max_level(), 2) << "clumps must trigger level-2 refinement";
    // Level-2 grids nest inside level-1 parents.
    for (auto id : h.level_grids(2)) {
      const auto& g = h.grid(id);
      const auto& parent = h.grid(g.parent);
      EXPECT_EQ(parent.level, 1);
      for (int d = 0; d < 3; ++d) {
        auto u = static_cast<std::size_t>(d);
        EXPECT_GE(g.left_edge[u], parent.left_edge[u] - 1e-12);
        EXPECT_LE(g.right_edge[u], parent.right_edge[u] + 1e-12);
      }
      // Twice the parent's resolution.
      EXPECT_NEAR(g.cell_width(0), parent.cell_width(0) / 2.0, 1e-12);
    }

    // Deep hierarchies must survive a dump/restart round-trip too.
    MpiIoBackend backend(fs);
    backend.write_dump(c, sim.state(), "deep");
    EnzoSimulation fresh(c, config);
    backend.read_restart(c, fresh.state(), "deep");
    EXPECT_EQ(fresh.state().hierarchy.grid_count(), h.grid_count());
    EXPECT_EQ(fresh.state().hierarchy.max_level(), h.max_level());
    EXPECT_EQ(fresh.state().my_fields, sim.state().my_fields);
  });
}

TEST(BoundedPieces, SubgridsSmallerThanProcGridPartitionConservatively) {
  // P = 16 on a 16^3 root: proc grid (4,2,2); refinement boxes can be only
  // 2 cells thick in z, so they split over fewer than 16 ranks.
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.refine.threshold = 3.0;
  config.refine.min_box = 2;
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(16));
  std::vector<std::uint64_t> piece_cells(16, 0);
  std::uint64_t stored_subgrid_cells = 0;
  rt.run([&](mpi::Comm& c) {
    MpiIoBackend backend(fs);
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    backend.write_dump(c, sim.state(), "bounded");
    if (c.rank() == 0) {
      stored_subgrid_cells = sim.state().hierarchy.total_cells() -
                             config.root_cells();
    }

    EnzoSimulation fresh(c, config);
    backend.read_initial(c, fresh.state(), "bounded");
    std::uint64_t mine = 0;
    for (const auto& g : fresh.state().my_subgrids) {
      mine += g.desc.cell_count();
      // Piece data matches the analytic truth.
      amr::Grid expect;
      expect.desc = g.desc;
      sim.universe().fill_fields(expect, fresh.state().time);
      EXPECT_EQ(g.fields[0], expect.fields[0]);
    }
    piece_cells[static_cast<std::size_t>(c.rank())] = mine;

    // Verify at least one grid actually required a bounded split.
    bool any_bounded = false;
    for (const auto& g : sim.state().hierarchy.grids()) {
      if (g.level == 0) continue;
      if (piece_count(bounded_proc_grid(g, 16)) < 16) any_bounded = true;
    }
    EXPECT_TRUE(any_bounded)
        << "test premise: some subgrid must be smaller than the proc grid";
  });
  // Conservation: the pieces tile the stored subgrids exactly.
  std::uint64_t total =
      std::accumulate(piece_cells.begin(), piece_cells.end(), 0ull);
  EXPECT_EQ(total, stored_subgrid_cells);
}

TEST(ByteAccounting, BackendsWriteTheSamePayloadWithinOverheads) {
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.compute_per_cell = 0.0;

  auto bytes_written = [&](int which) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(4));
    std::uint64_t total = 0;
    rt.run([&](mpi::Comm& c) {
      std::unique_ptr<IoBackend> b;
      if (which == 0) b = std::make_unique<Hdf4SerialBackend>(fs);
      if (which == 1) b = std::make_unique<MpiIoBackend>(fs);
      if (which == 2) b = std::make_unique<Hdf5ParallelBackend>(fs);
      EnzoSimulation sim(c, config);
      sim.initialize_from_universe();
      b->write_dump(c, sim.state(), "acct");
      std::uint64_t sum =
          c.allreduce_sum(c.proc().stats().io_bytes_written);
      if (c.rank() == 0) total = sum;
    });
    return total;
  };

  std::uint64_t h4 = bytes_written(0);
  std::uint64_t mio = bytes_written(1);
  std::uint64_t h5 = bytes_written(2);
  // Identical payload; formats differ only in metadata overhead (< 8%).
  EXPECT_NEAR(static_cast<double>(h4), static_cast<double>(mio),
              0.08 * static_cast<double>(mio));
  EXPECT_NEAR(static_cast<double>(h5), static_cast<double>(mio),
              0.08 * static_cast<double>(mio));
}

TEST(ByteAccounting, DumpPayloadScalesWithRootGrid) {
  auto payload = [&](std::uint64_t n) {
    SimulationConfig config;
    config.root_dims = {n, n, n};
    config.particles_per_cell = 0.25;
    config.compute_per_cell = 0.0;
    pfs::LocalFs fs(pfs::LocalFsParams{});
    mpi::Runtime rt(rparams(2));
    std::uint64_t total = 0;
    rt.run([&](mpi::Comm& c) {
      MpiIoBackend b(fs);
      EnzoSimulation sim(c, config);
      sim.initialize_from_universe();
      b.write_dump(c, sim.state(), "scale");
      std::uint64_t sum = c.allreduce_sum(c.proc().stats().io_bytes_written);
      if (c.rank() == 0) total = sum;
    });
    return static_cast<double>(total);
  };
  double p16 = payload(16);
  double p32 = payload(32);
  // Doubling each axis multiplies the payload by ~8 (the Table 1 check).
  EXPECT_GT(p32 / p16, 5.0);
  EXPECT_LT(p32 / p16, 12.0);
}


TEST(DumpInspector, SummarisesAllThreeFormats) {
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.25;
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(4));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    Hdf4SerialBackend(fs).write_dump(c, sim.state(), "da");
    MpiIoBackend(fs).write_dump(c, sim.state(), "db");
    Hdf5ParallelBackend(fs).write_dump(c, sim.state(), "dc");
    PnetcdfBackend(fs).write_dump(c, sim.state(), "dd");
    if (c.rank() != 0) return;

    auto a = inspect_dump(fs, "da");
    auto b = inspect_dump(fs, "db");
    auto d = inspect_dump(fs, "dc");
    auto n = inspect_dump(fs, "dd");
    EXPECT_EQ(a.format, DumpFormat::kHdf4);
    EXPECT_EQ(b.format, DumpFormat::kMpiIo);
    EXPECT_EQ(d.format, DumpFormat::kHdf5);
    EXPECT_EQ(n.format, DumpFormat::kPnetcdf);
    // Same simulation state: identical logical contents.
    EXPECT_EQ(a.meta.n_particles, b.meta.n_particles);
    EXPECT_EQ(b.meta.n_particles, d.meta.n_particles);
    EXPECT_EQ(b.meta.n_particles, n.meta.n_particles);
    EXPECT_EQ(a.meta.hierarchy.grid_count(), b.meta.hierarchy.grid_count());
    EXPECT_EQ(a.datasets, b.datasets);  // same dataset schema
    EXPECT_EQ(b.datasets, d.datasets);
    EXPECT_EQ(b.datasets, n.datasets);
    // HDF4 splits into one file per subgrid; the others are single files.
    EXPECT_EQ(a.files, a.meta.hierarchy.grid_count());  // topgrid + subgrids
    EXPECT_EQ(b.files, 1u);
    EXPECT_EQ(d.files, 1u);
    EXPECT_EQ(n.files, 1u);
    // Byte totals agree within format overhead.
    EXPECT_NEAR(static_cast<double>(a.total_bytes),
                static_cast<double>(b.total_bytes),
                0.08 * static_cast<double>(b.total_bytes));
    // The report mentions the essentials.
    std::string report = format_summary(b, "db");
    EXPECT_NE(report.find("16x16x16"), std::string::npos);
    EXPECT_NE(report.find("particles"), std::string::npos);
  });
}

TEST(DumpInspector, ZeroParticleDumpsCountTheSameDatasetsInEveryFormat) {
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.particles_per_cell = 0.0;
  config.compute_per_cell = 0.0;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(4));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    Hdf4SerialBackend(fs).write_dump(c, sim.state(), "za");
    MpiIoBackend(fs).write_dump(c, sim.state(), "zb");
    Hdf5ParallelBackend(fs).write_dump(c, sim.state(), "zc");
    PnetcdfBackend(fs).write_dump(c, sim.state(), "zd");
    if (c.rank() != 0) return;
    // Only the grid fields: a dump without particles has no particle
    // datasets, whichever format stored it.
    const std::uint64_t fields =
        sim.state().hierarchy.grid_count() * amr::kNumBaryonFields;
    EXPECT_GT(sim.state().hierarchy.grid_count(), 1u);
    for (const char* base : {"za", "zb", "zc", "zd"}) {
      const DumpSummary s = inspect_dump(fs, base);
      EXPECT_EQ(s.meta.n_particles, 0u) << base;
      EXPECT_EQ(s.datasets, fields) << base;
    }
  });
}

TEST(DumpInspector, MissingDumpAndMissingSubgridFileAreErrors) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(2));
  rt.run([&](mpi::Comm& c) {
    if (c.rank() != 0) return;
    EXPECT_THROW(inspect_dump(fs, "nothing_here"), IoError);
    EXPECT_EQ(detect_dump_format(fs, "nothing_here"), DumpFormat::kUnknown);
  });
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.compute_per_cell = 0.0;
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    Hdf4SerialBackend(fs).write_dump(c, sim.state(), "broken");
    c.barrier();
    if (c.rank() != 0) return;
    // Remove one subgrid file: the inspector must notice.
    for (const auto& g : sim.state().hierarchy.grids()) {
      if (g.level == 0) continue;
      fs.remove(subgrid_file_name("broken", g.id));
      break;
    }
    EXPECT_THROW(inspect_dump(fs, "broken"), FormatError);
  });
}


TEST(HierarchyFile, RenderParseRoundTrip) {
  amr::Hierarchy h;
  h.set_root({32, 32, 32});
  for (int i = 0; i < 4; ++i) {
    amr::GridDescriptor c;
    c.level = 1;
    c.parent = 0;
    c.left_edge = {0.25 * i, 0.5, 0.0};
    c.right_edge = {0.25 * i + 0.125, 0.75, 0.25};
    c.dims = {8, 16, 16};
    c.owner = i;
    h.add_grid(c);
  }
  double t = 0;
  std::uint64_t cyc = 0;
  std::string text = render_hierarchy_text(h, 3.75, 12);
  amr::Hierarchy back = parse_hierarchy_text(text, &t, &cyc);
  EXPECT_EQ(back, h);
  EXPECT_DOUBLE_EQ(t, 3.75);
  EXPECT_EQ(cyc, 12u);
  // Human-readable essentials present.
  EXPECT_NE(text.find("NumberOfGrids = 5"), std::string::npos);
  EXPECT_NE(text.find("GridLeftEdge"), std::string::npos);
}

TEST(HierarchyFile, MalformedInputsRejected) {
  EXPECT_THROW(parse_hierarchy_text("garbage line without equals"),
               FormatError);
  EXPECT_THROW(parse_hierarchy_text("Unknown = 3"), FormatError);
  EXPECT_THROW(parse_hierarchy_text("Time = not_a_number"), FormatError);
  EXPECT_THROW(parse_hierarchy_text(""), FormatError);  // no root
  // NumberOfGrids mismatch.
  amr::Hierarchy h;
  h.set_root({8, 8, 8});
  std::string text = render_hierarchy_text(h, 0, 0);
  text.replace(text.find("NumberOfGrids = 1"), 17, "NumberOfGrids = 9");
  EXPECT_THROW(parse_hierarchy_text(text), FormatError);
}

TEST(HierarchyFile, Hdf4DumpWritesReadableHierarchy) {
  SimulationConfig config;
  config.root_dims = {16, 16, 16};
  config.compute_per_cell = 0.0;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::Runtime rt(rparams(4));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    Hdf4SerialBackend(fs).write_dump(c, sim.state(), "hdump");
    if (c.rank() != 0) return;
    double t = 0;
    std::uint64_t cyc = 0;
    amr::Hierarchy h = read_hierarchy_file(fs, "hdump.hierarchy", &t, &cyc);
    EXPECT_EQ(h, sim.state().hierarchy);
    EXPECT_DOUBLE_EQ(t, sim.state().time);
    EXPECT_EQ(cyc, sim.state().cycle);
  });
}

TEST(HierarchyValidate, SimulationHierarchiesAreValid) {
  SimulationConfig config;
  config.root_dims = {32, 32, 32};
  config.refine.max_level = 2;
  config.refine.threshold = 2.5;
  config.refine.min_box = 2;
  config.compute_per_cell = 0.0;
  mpi::Runtime rt(rparams(4));
  rt.run([&](mpi::Comm& c) {
    EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    EXPECT_NO_THROW(sim.state().hierarchy.validate());
    sim.evolve_cycle();
    EXPECT_NO_THROW(sim.state().hierarchy.validate());
  });
}

TEST(HierarchyValidate, DetectsOverlap) {
  amr::Hierarchy h;
  h.set_root({8, 8, 8});
  amr::GridDescriptor a;
  a.level = 1;
  a.parent = 0;
  a.left_edge = {0.0, 0.0, 0.0};
  a.right_edge = {0.5, 0.5, 0.5};
  a.dims = {8, 8, 8};
  h.add_grid(a);
  amr::GridDescriptor b = a;
  b.left_edge = {0.25, 0.25, 0.25};  // overlaps a
  b.right_edge = {0.75, 0.75, 0.75};
  h.add_grid(b);
  EXPECT_THROW(h.validate(), LogicError);
}
}  // namespace
}  // namespace paramrio::enzo
