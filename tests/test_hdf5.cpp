// Unit + integration tests for the HDF5-analogue: dataspaces, hyperslabs,
// serial and parallel drivers, and the four modelled overhead sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "fault/fault.hpp"
#include "hdf5/h5_file.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio::hdf5 {
namespace {

using mpi::Comm;
using mpi::Runtime;
using mpi::RuntimeParams;

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> seq_f64(std::size_t n, double base = 0.0) {
  std::vector<std::byte> v(n * 8);
  for (std::size_t i = 0; i < n; ++i) {
    double d = base + static_cast<double>(i);
    std::memcpy(v.data() + i * 8, &d, 8);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Dataspace / hyperslab
// ---------------------------------------------------------------------------

TEST(Dataspace, DefaultsToAllSelected) {
  Dataspace s({4, 5});
  EXPECT_EQ(s.total_elements(), 20u);
  EXPECT_EQ(s.selected_elements(), 20u);
  EXPECT_TRUE(s.is_all_selected());
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_offset, 0u);
  EXPECT_EQ(runs[0].element_count, 20u);
}

TEST(Dataspace, BlockSelection2D) {
  Dataspace s({4, 6});
  s.select_block({1, 2}, {2, 3});
  EXPECT_EQ(s.selected_elements(), 6u);
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].element_offset, 1u * 6 + 2);
  EXPECT_EQ(runs[0].element_count, 3u);
  EXPECT_EQ(runs[1].element_offset, 2u * 6 + 2);
}

TEST(Dataspace, FullRowsCoalesce) {
  Dataspace s({4, 6});
  s.select_block({1, 0}, {2, 6});
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_offset, 6u);
  EXPECT_EQ(runs[0].element_count, 12u);
}

TEST(Dataspace, StridedHyperslab) {
  Dataspace s({10});
  s.select_hyperslab({HyperslabDim{1, 3, 3, 2}});  // [1,2],[4,5],[7,8]
  EXPECT_EQ(s.selected_elements(), 6u);
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].element_offset, 1u);
  EXPECT_EQ(runs[0].element_count, 2u);
  EXPECT_EQ(runs[2].element_offset, 7u);
}

TEST(Dataspace, AdjacentStrideBlocksMerge) {
  Dataspace s({12});
  s.select_hyperslab({HyperslabDim{0, 4, 3, 4}});  // stride == block
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].element_count, 12u);
}

TEST(Dataspace, HyperslabValidation) {
  Dataspace s({8, 8});
  EXPECT_THROW(s.select_hyperslab({HyperslabDim{0, 1, 9, 1}}), LogicError);
  EXPECT_THROW(
      s.select_hyperslab({HyperslabDim{0, 1, 8, 1}, HyperslabDim{7, 1, 2, 1}}),
      LogicError);
  EXPECT_THROW(
      s.select_hyperslab({HyperslabDim{0, 1, 1, 2}, HyperslabDim{0, 1, 1, 1}}),
      LogicError);  // stride < block
  EXPECT_THROW(s.select_block({0}, {1}), LogicError);  // rank mismatch
}

TEST(Dataspace, RecursionStepsGrowWithSelectionFragmentation) {
  // Same element count (64), different fragmentation: a row is one run, a
  // column is 64 one-element runs and costs more iterator steps.
  Dataspace coarse({64, 64});
  coarse.select_block({0, 0}, {1, 64});  // one full row
  Dataspace fine({64, 64});
  fine.select_block({0, 0}, {64, 1});  // one element per row
  std::uint64_t coarse_steps = coarse.for_each_run([](const auto&) {});
  std::uint64_t fine_steps = fine.for_each_run([](const auto&) {});
  EXPECT_GT(fine_steps, coarse_steps);
}

TEST(Dataspace, ThreeDBlockMatchesManualIndexing) {
  Dataspace s({4, 4, 4});
  s.select_block({1, 2, 1}, {2, 2, 2});
  auto runs = s.runs();
  ASSERT_EQ(runs.size(), 4u);
  auto lin = [](std::uint64_t z, std::uint64_t y, std::uint64_t x) {
    return (z * 4 + y) * 4 + x;
  };
  EXPECT_EQ(runs[0].element_offset, lin(1, 2, 1));
  EXPECT_EQ(runs[1].element_offset, lin(1, 3, 1));
  EXPECT_EQ(runs[2].element_offset, lin(2, 2, 1));
  EXPECT_EQ(runs[3].element_offset, lin(2, 3, 1));
}

// ---------------------------------------------------------------------------
// Serial driver
// ---------------------------------------------------------------------------

TEST(H5FileSerial, CreateWriteReopenRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    auto data = seq_f64(27, 100.0);
    {
      H5File f = H5File::create(fs, "out.h5");
      Dataset d =
          f.create_dataset("density", NumberType::kFloat64, Dataspace({3, 3, 3}));
      d.write_all(data);
      d.close();
      double t = 0.5;
      f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
      f.close();
    }
    {
      H5File f = H5File::open(fs, "out.h5");
      ASSERT_TRUE(f.has_dataset("density"));
      Dataset d = f.open_dataset("density");
      EXPECT_EQ(d.info().dims, (std::vector<std::uint64_t>{3, 3, 3}));
      std::vector<std::byte> out(27 * 8);
      d.read_all(out);
      EXPECT_EQ(out, data);
      auto attr = f.read_attribute("time");
      double t;
      std::memcpy(&t, attr.data(), 8);
      EXPECT_DOUBLE_EQ(t, 0.5);
      f.close();
    }
  });
}

TEST(H5FileSerial, HyperslabPartialWriteRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    H5File f = H5File::create(fs, "x.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({4, 4}));
    d.write_all(seq_f64(16));
    // Overwrite the 2x2 centre.
    Dataspace sel({4, 4});
    sel.select_block({1, 1}, {2, 2});
    d.write(sel, seq_f64(4, 1000.0));
    // Read a column through the centre.
    Dataspace col({4, 4});
    col.select_block({0, 2}, {4, 1});
    std::vector<std::byte> out(4 * 8);
    d.read(col, out);
    double v[4];
    std::memcpy(v, out.data(), 32);
    EXPECT_DOUBLE_EQ(v[0], 2.0);     // untouched row 0
    EXPECT_DOUBLE_EQ(v[1], 1001.0);  // centre write [1][2] = 1000+1
    EXPECT_DOUBLE_EQ(v[2], 1003.0);  // centre write [2][2] = 1000+3
    EXPECT_DOUBLE_EQ(v[3], 14.0);    // untouched row 3
    d.close();
    f.close();
  });
}

TEST(H5FileSerial, MultipleDatasetsChainAcrossReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    {
      H5File f = H5File::create(fs, "m.h5");
      for (int i = 0; i < 8; ++i) {
        Dataset d = f.create_dataset("ds" + std::to_string(i),
                                     NumberType::kFloat64, Dataspace({16}));
        d.write_all(seq_f64(16, i * 100.0));
        d.close();
      }
      f.close();
    }
    H5File f = H5File::open(fs, "m.h5");
    EXPECT_EQ(f.dataset_names().size(), 8u);
    for (int i = 0; i < 8; ++i) {
      Dataset d = f.open_dataset("ds" + std::to_string(i));
      std::vector<std::byte> out(16 * 8);
      d.read_all(out);
      double v;
      std::memcpy(&v, out.data(), 8);
      EXPECT_DOUBLE_EQ(v, i * 100.0);
    }
    f.close();
  });
}

TEST(H5FileSerial, BufferSizeValidation) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    H5File f = H5File::create(fs, "v.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat32, Dataspace({8}));
    EXPECT_THROW(d.write_all(std::vector<std::byte>(31)), LogicError);
    Dataspace wrong({9});
    EXPECT_THROW(d.write(wrong, std::vector<std::byte>(36)), LogicError);
    f.close();
  });
}

TEST(H5FileSerial, AlignmentPlacesDataOnBoundary) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm&) {
    FileConfig cfg;
    cfg.alignment = 64 * KiB;
    H5File f = H5File::create(fs, "a.h5", cfg);
    Dataset d = f.create_dataset("x", NumberType::kFloat64, Dataspace({100}));
    EXPECT_EQ(d.info().data_addr % (64 * KiB), 0u);
    d.write_all(seq_f64(100));
    f.close();

    // Unaligned default: data starts right after the object header.
    H5File g = H5File::create(fs, "b.h5");
    Dataset e = g.create_dataset("x", NumberType::kFloat64, Dataspace({100}));
    EXPECT_NE(e.info().data_addr % (64 * KiB), 0u);
    g.close();
  });
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

class H5ParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(H5ParallelSweep, BlockPartitionedCollectiveWrite) {
  const int p = GetParam();
  const std::uint64_t n = 16;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "par.h5", cfg);
    Dataset d =
        f.create_dataset("a", NumberType::kFloat64, Dataspace({n, n}));
    // Partition the middle: rank r writes rows [r*n/p, ...).
    std::uint64_t rows = n / static_cast<std::uint64_t>(p);
    std::uint64_t r0 = rows * static_cast<std::uint64_t>(c.rank());
    Dataspace sel({n, n});
    sel.select_block({r0, 0}, {rows, n});
    d.write(sel, seq_f64(rows * n, static_cast<double>(c.rank()) * 1.0e6));
    d.close();
    f.close();

    // Re-open in parallel and read the transpose partition (columns).
    H5File g = H5File::open(fs, "par.h5", cfg);
    Dataset e = g.open_dataset("a");
    std::uint64_t cols = n / static_cast<std::uint64_t>(p);
    std::uint64_t c0 = cols * static_cast<std::uint64_t>(c.rank());
    Dataspace csel({n, n});
    csel.select_block({0, c0}, {n, cols});
    std::vector<std::byte> out(n * cols * 8);
    e.read(csel, out);
    // Element (row, col) was written by rank row/rows with value
    // rank*1e6 + (row%rows)*n + col.
    std::size_t k = 0;
    for (std::uint64_t row = 0; row < n; ++row) {
      for (std::uint64_t col = c0; col < c0 + cols; ++col) {
        double expect = static_cast<double>(row / rows) * 1.0e6 +
                        static_cast<double>((row % rows) * n + col);
        double v;
        std::memcpy(&v, out.data() + k * 8, 8);
        EXPECT_DOUBLE_EQ(v, expect);
        ++k;
      }
    }
    e.close();
    g.close();
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, H5ParallelSweep, ::testing::Values(1, 2, 4, 8));

TEST(H5Parallel, IndependentTransferModeAlsoCorrect) {
  const int p = 4;
  const std::uint64_t n = 8;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "ind.h5", cfg);
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({n, n}));
    std::uint64_t rows = n / static_cast<std::uint64_t>(p);
    Dataspace sel({n, n});
    sel.select_block({rows * static_cast<std::uint64_t>(c.rank()), 0},
                     {rows, n});
    d.write(sel, seq_f64(rows * n, c.rank() * 100.0), /*collective=*/false);
    c.barrier();
    std::vector<std::byte> out(rows * n * 8);
    d.read(sel, out, /*collective=*/false);
    EXPECT_EQ(out, seq_f64(rows * n, c.rank() * 100.0));
    d.close();
    f.close();
  });
}

TEST(H5Parallel, MetadataSyncCostsShowUp) {
  // Creating many datasets with metadata_sync on must cost more wall time
  // than with it off (the paper's dataset create/close overhead).
  auto run_with = [](bool sync) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(8));
    auto res = rt.run([&](Comm& c) {
      FileConfig cfg;
      cfg.comm = &c;
      cfg.metadata_sync = sync;
      H5File f = H5File::create(fs, "s.h5", cfg);
      for (int i = 0; i < 16; ++i) {
        Dataset d = f.create_dataset("d" + std::to_string(i),
                                     NumberType::kFloat64, Dataspace({8}));
        d.close();
      }
      f.close();
    });
    return res.makespan;
  };
  EXPECT_GT(run_with(true), run_with(false));
}

TEST(H5Parallel, Rank0AttributeSerialisation) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "attr.h5", cfg);
    double t = 3.5;
    f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
    auto back = f.read_attribute("time");
    double v;
    std::memcpy(&v, back.data(), 8);
    EXPECT_DOUBLE_EQ(v, 3.5);
    f.close();
  });
  // Physically present exactly once (rank 0's write).
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "attr.h5");
    EXPECT_EQ(f.read_attribute("time").size(), 8u);
    f.close();
  });
}

TEST(H5Parallel, AlignmentReducesWriteTimeOnStripedLayout) {
  // With tiny stripes and misaligned data, large writes straddle more
  // boundaries; alignment must not be slower.
  auto run_with = [](std::uint64_t alignment) {
    pfs::LocalFsParams fp;
    fp.stripe_size = 64 * KiB;
    fp.disk.seek_time = ms(10);
    pfs::LocalFs fs(fp);
    Runtime rt(rparams(4));
    auto res = rt.run([&](Comm& c) {
      FileConfig cfg;
      cfg.comm = &c;
      cfg.alignment = alignment;
      H5File f = H5File::create(fs, "al.h5", cfg);
      Dataset d = f.create_dataset("a", NumberType::kFloat64,
                                   Dataspace({64, 64, 64}));
      Dataspace sel({64, 64, 64});
      std::uint64_t rows = 16;
      sel.select_block({rows * static_cast<std::uint64_t>(c.rank()), 0, 0},
                       {rows, 64, 64});
      d.write(sel, seq_f64(rows * 64 * 64));
      d.close();
      f.close();
    });
    return res.makespan;
  };
  EXPECT_LE(run_with(64 * KiB), run_with(1) * 1.05);
}


TEST(H5Interop, ParallelWriteSerialRead) {
  // Files written through the parallel driver must be readable through the
  // serial driver (same on-disk format).
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::create(fs, "interop.h5", cfg);
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({8, 8}));
    Dataspace sel({8, 8});
    sel.select_block({static_cast<std::uint64_t>(c.rank()) * 2, 0}, {2, 8});
    d.write(sel, seq_f64(16, c.rank() * 100.0));
    d.close();
    double t = 9.5;
    f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
    f.close();
  });
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "interop.h5");  // serial driver
    Dataset d = f.open_dataset("a");
    std::vector<std::byte> out(64 * 8);
    d.read_all(out);
    for (int r = 0; r < 4; ++r) {
      double v;
      std::memcpy(&v, out.data() + static_cast<std::size_t>(r) * 16 * 8, 8);
      EXPECT_DOUBLE_EQ(v, r * 100.0);
    }
    auto att = f.read_attribute("time");
    double t;
    std::memcpy(&t, att.data(), 8);
    EXPECT_DOUBLE_EQ(t, 9.5);
    f.close();
  });
}

TEST(H5Interop, SerialWriteParallelRead) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::create(fs, "sw.h5");
    Dataset d = f.create_dataset("a", NumberType::kFloat64, Dataspace({4, 4}));
    d.write_all(seq_f64(16, 50.0));
    f.close();
  });
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    H5File f = H5File::open(fs, "sw.h5", cfg);
    Dataset d = f.open_dataset("a");
    Dataspace sel({4, 4});
    sel.select_block({static_cast<std::uint64_t>(c.rank()) * 2, 0}, {2, 4});
    std::vector<std::byte> out(8 * 8);
    d.read(sel, out, /*collective=*/true);
    double v;
    std::memcpy(&v, out.data(), 8);
    EXPECT_DOUBLE_EQ(v, 50.0 + c.rank() * 8);
    d.close();
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Open-time metadata read: malformed chains, one read per job
// ---------------------------------------------------------------------------

std::uint64_t load_le(const std::vector<std::byte>& b, std::uint64_t off,
                      int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(b[off + i])} << (8 * i);
  }
  return v;
}

void store_le(std::vector<std::byte>& b, std::uint64_t off, std::uint64_t v,
              int n) {
  for (int i = 0; i < n; ++i) {
    b[off + i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// A serially written file: an attribute whose header is longer than one
/// speculative read, four datasets, then a short attribute.
void write_golden(pfs::FileSystem& fs, const std::string& path) {
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::create(fs, path);
    f.write_attribute("big", std::vector<std::byte>(1000, std::byte{7}));
    for (int i = 0; i < 4; ++i) {
      Dataset d = f.create_dataset("ds" + std::to_string(i),
                                   NumberType::kFloat64, Dataspace({8}));
      d.write_all(seq_f64(8, i * 10.0));
      d.close();
    }
    double t = 1.5;
    f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
    f.close();
  });
}

/// Record offsets in chain order, read straight from the stored bytes.
std::vector<std::uint64_t> record_offsets(const std::vector<std::byte>& b) {
  std::vector<std::uint64_t> recs;
  for (std::uint64_t pos = load_le(b, 16, 8); pos != 0;
       pos = load_le(b, pos + 8, 8)) {
    recs.push_back(pos);
  }
  return recs;
}

/// The FormatError message an open throws, or "" when it succeeds.
std::string open_error(pfs::FileSystem& fs, const std::string& path,
                       FileConfig cfg = {}) {
  try {
    H5File f = H5File::open(fs, path, cfg);
  } catch (const FormatError& e) {
    return e.what();
  }
  return "";
}

struct ChainDefect {
  std::string name;
  /// Mutates the golden bytes; returns the offset the diagnosis must name.
  std::uint64_t (*mutate)(std::vector<std::byte>& b,
                          const std::vector<std::uint64_t>& recs);
};

void PrintTo(const ChainDefect& d, std::ostream* os) { *os << d.name; }

class H5MalformedChain : public ::testing::TestWithParam<ChainDefect> {};

TEST_P(H5MalformedChain, SerialAndParallelOpensDiagnoseIt) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  const std::string path = "bad.h5";
  write_golden(fs, path);
  std::vector<std::byte> bytes(fs.store().size(path));
  fs.store().read_at(path, 0, bytes);
  const auto recs = record_offsets(bytes);
  ASSERT_EQ(recs.size(), 6u);
  const std::uint64_t off = GetParam().mutate(bytes, recs);
  fs.store().create(path);
  fs.store().write_at(path, 0, bytes);

  const std::string where = "offset " + std::to_string(off) + ":";
  sim::Engine::Options o;
  o.nprocs = 1;
  std::string serial;
  sim::Engine::run(o, [&](sim::Proc&) { serial = open_error(fs, path); });
  EXPECT_NE(serial.find(path), std::string::npos) << serial;
  EXPECT_NE(serial.find(where), std::string::npos) << serial;

  // Only rank 0 reads the chain, yet every rank must end with the same
  // diagnosis rather than hang in the broadcast.
  std::vector<std::string> parallel(4);
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    FileConfig cfg;
    cfg.comm = &c;
    parallel[static_cast<std::size_t>(c.rank())] = open_error(fs, path, cfg);
  });
  for (const std::string& e : parallel) EXPECT_EQ(e, serial);
}

INSTANTIATE_TEST_SUITE_P(
    Defects, H5MalformedChain,
    ::testing::Values(
        ChainDefect{"TruncatedMidHeader",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      b.resize(r[2] + 16 + 3);
                      return r[2];
                    }},
        ChainDefect{"TruncatedMidFixedPart",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      b.resize(r[2] + 8);
                      return r[1];  // the record whose link leaves the file
                    }},
        ChainDefect{"BackwardNext",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      store_le(b, r[3] + 8, r[1], 8);
                      return r[3];
                    }},
        ChainDefect{"SelfLoop",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      store_le(b, r[2] + 8, r[2], 8);
                      return r[2];
                    }},
        ChainDefect{"InflatedHeaderLength",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      store_le(b, r[1] + 4, 0xFFFFFFF0u, 4);
                      return r[1];
                    }},
        ChainDefect{"BadTypeByte",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      // Dataset header: name (u32 length + bytes), type u8.
                      std::uint64_t name_len = load_le(b, r[1] + 16, 4);
                      store_le(b, r[1] + 16 + 4 + name_len, 9, 1);
                      return r[1];
                    }},
        ChainDefect{"InflatedAttributeLength",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      // Attribute header: name, then the u64 value length;
                      // this one wraps a naive end-of-value computation.
                      std::uint64_t name_len = load_le(b, r[0] + 16, 4);
                      store_le(b, r[0] + 16 + 4 + name_len, ~std::uint64_t{7},
                               8);
                      return r[0];
                    }},
        ChainDefect{"BadKind",
                    [](std::vector<std::byte>& b,
                       const std::vector<std::uint64_t>& r) {
                      store_le(b, r[2], 7, 4);
                      return r[2];
                    }}),
    [](const ::testing::TestParamInfo<ChainDefect>& info) {
      return info.param.name;
    });

TEST_P(H5MalformedChain, StepwiseWalkDiagnosesItAlike) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  const std::string path = "bad.h5";
  write_golden(fs, path);
  std::vector<std::byte> bytes(fs.store().size(path));
  fs.store().read_at(path, 0, bytes);
  GetParam().mutate(bytes, record_offsets(bytes));
  fs.store().create(path);
  fs.store().write_at(path, 0, bytes);

  sim::Engine::Options o;
  o.nprocs = 1;
  std::string eager;
  std::string stepwise;
  sim::Engine::run(o, [&](sim::Proc&) {
    eager = open_error(fs, path);
    const int fd = fs.open(path, pfs::OpenMode::kRead);
    const pfs::ReadAt read = [&](std::uint64_t off,
                                 std::span<std::byte> out) {
      fs.read_exact(fd, off, out);
    };
    try {
      ChainWalk walk = ChainWalk::open(path, fs.size(fd), read);
      while (!walk.done()) walk.next(read);
    } catch (const FormatError& e) {
      stepwise = e.what();
    }
    fs.close(fd);
  });
  EXPECT_FALSE(eager.empty());
  EXPECT_EQ(stepwise, eager);
}

/// Counts the read requests each rank issues.
class ReadCounter : public pfs::IoObserver {
 public:
  void on_io(double, int rank, bool is_write, const std::string&,
             std::uint64_t, std::uint64_t, int) override {
    if (!is_write) ++reads[rank];
  }
  std::map<int, std::uint64_t> reads;
};

/// Every decoded dataset and attribute of an open file, rendered.
std::string tables_of(H5File& f) {
  std::string s;
  for (const std::string& name : f.dataset_names()) {
    const DatasetInfo& i = f.open_dataset(name).info();
    s += name + " type " + std::to_string(static_cast<int>(i.type)) + " @" +
         std::to_string(i.data_addr) + "+" + std::to_string(i.data_bytes) +
         " dims";
    for (auto d : i.dims) s += " " + std::to_string(d);
    s += "\n";
  }
  for (const char* name : {"big", "time"}) {
    auto v = f.read_attribute(name);
    s += std::string(name) + "=" +
         std::string(reinterpret_cast<const char*>(v.data()), v.size()) + "\n";
  }
  return s;
}

TEST(H5Open, ParallelOpenReadsMetadataOnce) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  write_golden(fs, "once.h5");
  std::string serial;
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "once.h5");
    serial = tables_of(f);
    f.close();
  });
  ASSERT_EQ(std::count(serial.begin(), serial.end(), '\n'), 6);

  std::uint64_t one_rank_reads = 0;
  for (int p : {1, 2, 4, 8}) {
    ReadCounter counter;
    fs.attach_observer(&counter);
    std::vector<std::string> tables(static_cast<std::size_t>(p));
    Runtime rt(rparams(p));
    rt.run([&](Comm& c) {
      FileConfig cfg;
      cfg.comm = &c;
      H5File f = H5File::open(fs, "once.h5", cfg);
      tables[static_cast<std::size_t>(c.rank())] = tables_of(f);
      f.close();
    });
    fs.attach_observer(nullptr);

    std::uint64_t total = 0;
    for (const auto& [rank, n] : counter.reads) {
      total += n;
      if (rank != 0) {
        EXPECT_EQ(n, 0u) << "rank " << rank << " of " << p;
      }
    }
    // Superblock, one speculative read per record, and a second read for
    // the one header longer than the speculative read.
    if (p == 1) {
      one_rank_reads = total;
      EXPECT_EQ(total, 1u + 6u + 1u);
    }
    EXPECT_EQ(total, one_rank_reads) << p << " ranks";
    for (const std::string& t : tables) EXPECT_EQ(t, serial) << p << " ranks";
  }
}

TEST(H5Open, StepwiseWalkIssuesTheOpensReads) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  write_golden(fs, "walk.h5");
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    H5File f = H5File::open(fs, "walk.h5");
    const std::vector<std::string> names = f.dataset_names();

    ReadCounter counter;
    fs.attach_observer(&counter);
    const int fd = fs.open("walk.h5", pfs::OpenMode::kRead);
    const pfs::ReadAt read = [&](std::uint64_t off,
                                 std::span<std::byte> out) {
      fs.read_exact(fd, off, out);
    };
    ChainWalk walk = ChainWalk::open("walk.h5", fs.size(fd), read);
    std::vector<std::string> walked;
    std::vector<std::string> attributes;
    while (!walk.done()) {
      ChainWalk::Record rec = walk.next(read);
      if (rec.is_dataset) {
        EXPECT_EQ(rec.dataset.data_addr,
                  f.open_dataset(rec.dataset.name).info().data_addr);
        walked.push_back(rec.dataset.name);
      } else {
        EXPECT_EQ(rec.value, f.read_attribute(rec.attribute));
        attributes.push_back(rec.attribute);
      }
    }
    fs.close(fd);
    fs.attach_observer(nullptr);
    f.close();
    EXPECT_EQ(walked, names);
    EXPECT_EQ(attributes, (std::vector<std::string>{"big", "time"}));
    // The open's reads: superblock, one per record, one long header.
    EXPECT_EQ(counter.reads[0], 1u + 6u + 1u);
  });
}

TEST(H5ShortReads, SerialOpenAndReadResumeThem) {
  // Without fs-level retry, every read of two or more bytes lands only half
  // its bytes; the serial driver must resume rather than decode the
  // unfilled tail as a malformed chain.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  write_golden(fs, "short.h5");
  sim::Engine::Options o;
  o.nprocs = 1;
  auto open_tables = [&] {
    std::string t;
    sim::Engine::run(o, [&](sim::Proc&) {
      H5File f = H5File::open(fs, "short.h5");
      t = tables_of(f);
      std::vector<std::byte> data(8 * 8);
      f.open_dataset("ds2").read_all(data);
      t += std::string(reinterpret_cast<const char*>(data.data()),
                       data.size());
      f.close();
    });
    return t;
  };
  const std::string clean = open_tables();

  fault::FaultSpec shorty;
  shorty.kind = fault::FaultKind::kShortRead;
  shorty.path_substr = "short.h5";
  fault::Injector inj(fault::FaultPlan{1, {shorty}});
  fs.attach_fault_hook(&inj);
  std::string shorted;
  EXPECT_NO_THROW(shorted = open_tables());
  fs.attach_fault_hook(nullptr);
  EXPECT_GT(inj.counters().injected_total(), 0u);
  EXPECT_EQ(shorted, clean);
}

}  // namespace
}  // namespace paramrio::hdf5
