// Tests for the PnetCDF-analogue: define/data mode discipline, header
// round-trips, collective and independent subarray access, and the
// single-synchronisation property that distinguishes it from the HDF5 path.
#include <gtest/gtest.h>

#include <cstring>

#include "pfs/local_fs.hpp"
#include "pnetcdf/nc_file.hpp"

namespace paramrio::pnetcdf {
namespace {

using mpi::Comm;
using mpi::Runtime;
using mpi::RuntimeParams;

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> seq_f32(std::size_t n, float base = 0.0f) {
  std::vector<std::byte> v(n * 4);
  for (std::size_t i = 0; i < n; ++i) {
    float f = base + static_cast<float>(i);
    std::memcpy(v.data() + i * 4, &f, 4);
  }
  return v;
}

TEST(NcFile, DefineModeDiscipline) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    NcFile nc = NcFile::create(c, fs, "a.nc");
    EXPECT_TRUE(nc.in_define_mode());
    int d = nc.def_dim("n", 8);
    int v = nc.def_var("x", NcType::kFloat, {d});
    // Data-mode ops are rejected in define mode.
    EXPECT_THROW(nc.put_vara_all(v, {0}, {8}, seq_f32(8)), LogicError);
    EXPECT_THROW(nc.close(), LogicError);  // close before enddef
    nc.enddef();
    EXPECT_FALSE(nc.in_define_mode());
    // Define-mode ops are rejected in data mode.
    EXPECT_THROW(nc.def_dim("m", 4), LogicError);
    EXPECT_THROW(nc.def_var("y", NcType::kFloat, {d}), LogicError);
    nc.put_vara_all(v, {0}, {8}, seq_f32(8));
    nc.close();
  });
}

TEST(NcFile, HeaderRoundTripAcrossOpen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    {
      NcFile nc = NcFile::create(c, fs, "h.nc");
      int dz = nc.def_dim("z", 4);
      int dx = nc.def_dim("x", 6);
      nc.def_var("density", NcType::kFloat, {dz, dx});
      nc.def_var("ids", NcType::kInt64, {dz});
      double t = 2.5;
      nc.put_att("time", std::as_bytes(std::span(&t, 1)));
      nc.enddef();
      int v = nc.inq_varid("density");
      if (c.rank() == 0) {
        nc.put_vara(v, {0, 0}, {4, 6}, seq_f32(24, 7.0f));
      }
      c.barrier();
      nc.close();
    }
    {
      NcFile nc = NcFile::open(c, fs, "h.nc");
      EXPECT_EQ(nc.var_count(), 2u);
      int v = nc.inq_varid("density");
      EXPECT_EQ(nc.var(v).type, NcType::kFloat);
      EXPECT_EQ(nc.dim(nc.var(v).dim_ids[0]).length, 4u);
      EXPECT_EQ(nc.dim(nc.var(v).dim_ids[1]).length, 6u);
      EXPECT_TRUE(nc.has_att("time"));
      double t;
      auto att = nc.get_att("time");
      std::memcpy(&t, att.data(), 8);
      EXPECT_DOUBLE_EQ(t, 2.5);
      std::vector<std::byte> out(24 * 4);
      nc.get_var_all(v, out);
      EXPECT_EQ(out, seq_f32(24, 7.0f));
      EXPECT_THROW(nc.inq_varid("absent"), IoError);
      EXPECT_THROW(nc.get_att("absent"), IoError);
      nc.close();
    }
  });
}

TEST(NcFile, DataRegionIsAligned) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    NcConfig cfg;
    cfg.data_alignment = 4096;
    NcFile nc = NcFile::create(c, fs, "al.nc", cfg);
    int d = nc.def_dim("n", 100);
    int v1 = nc.def_var("a", NcType::kFloat, {d});
    int v2 = nc.def_var("b", NcType::kDouble, {d});
    nc.enddef();
    EXPECT_EQ(nc.var(v1).offset % 4096, 0u);       // region aligned
    EXPECT_EQ(nc.var(v2).offset % 8, 0u);          // var aligned
    EXPECT_EQ(nc.var(v2).offset, nc.var(v1).offset + 400);
    nc.put_var_all(v1, seq_f32(100));
    nc.close();
  });
}

class NcParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(NcParallelSweep, BlockPartitionedRoundTrip) {
  const int p = GetParam();
  const std::uint64_t n = 16;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    {
      NcFile nc = NcFile::create(c, fs, "par.nc");
      int dz = nc.def_dim("z", n);
      int dy = nc.def_dim("y", n);
      int v = nc.def_var("field", NcType::kFloat, {dz, dy});
      nc.enddef();
      std::uint64_t rows = n / static_cast<std::uint64_t>(p);
      std::uint64_t r0 = rows * static_cast<std::uint64_t>(c.rank());
      nc.put_vara_all(v, {r0, 0}, {rows, n},
                      seq_f32(rows * n, static_cast<float>(c.rank()) * 1000));
      nc.close();
    }
    {
      NcFile nc = NcFile::open(c, fs, "par.nc");
      int v = nc.inq_varid("field");
      // Transposed partition: columns.
      std::uint64_t cols = n / static_cast<std::uint64_t>(p);
      std::uint64_t c0 = cols * static_cast<std::uint64_t>(c.rank());
      std::vector<std::byte> out(n * cols * 4);
      nc.get_vara_all(v, {0, c0}, {n, cols}, out);
      std::uint64_t rows = n / static_cast<std::uint64_t>(p);
      std::size_t k = 0;
      for (std::uint64_t z = 0; z < n; ++z) {
        for (std::uint64_t y = c0; y < c0 + cols; ++y) {
          float expect = static_cast<float>(z / rows) * 1000 +
                         static_cast<float>((z % rows) * n + y);
          float got;
          std::memcpy(&got, out.data() + k * 4, 4);
          EXPECT_FLOAT_EQ(got, expect);
          ++k;
        }
      }
      nc.close();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, NcParallelSweep, ::testing::Values(1, 2, 4, 8));

TEST(NcFile, ZeroCountParticipation) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    NcFile nc = NcFile::create(c, fs, "zero.nc");
    int d = nc.def_dim("n", 6);
    int v = nc.def_var("x", NcType::kDouble, {d});
    nc.enddef();
    // Only ranks 0..2 hold data; rank 3 joins with a zero count.
    if (c.rank() < 3) {
      std::vector<std::byte> buf(2 * 8);
      double vals[2] = {c.rank() * 2.0, c.rank() * 2.0 + 1};
      std::memcpy(buf.data(), vals, 16);
      nc.put_vara_all(v, {static_cast<std::uint64_t>(c.rank()) * 2}, {2}, buf);
    } else {
      nc.put_vara_all(v, {0}, {0}, {});
    }
    std::vector<std::byte> all(48);
    nc.get_var_all(v, all);
    for (int i = 0; i < 6; ++i) {
      double got;
      std::memcpy(&got, all.data() + i * 8, 8);
      EXPECT_DOUBLE_EQ(got, static_cast<double>(i));
    }
    nc.close();
  });
}

TEST(NcFile, ValidationErrors) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    NcFile nc = NcFile::create(c, fs, "v.nc");
    EXPECT_THROW(nc.def_dim("z", 0), LogicError);
    int d = nc.def_dim("z", 4);
    EXPECT_THROW(nc.def_var("x", NcType::kFloat, {}), LogicError);
    EXPECT_THROW(nc.def_var("x", NcType::kFloat, {5}), LogicError);
    nc.def_var("x", NcType::kFloat, {d});
    EXPECT_THROW(nc.def_var("x", NcType::kFloat, {d}), LogicError);
    nc.enddef();
    int v = nc.inq_varid("x");
    EXPECT_THROW(nc.put_vara_all(v, {0}, {4}, seq_f32(3)), LogicError);
    EXPECT_THROW(nc.put_vara_all(v, {0, 0}, {4, 1}, seq_f32(4)), LogicError);
    nc.close();
  });
  // Opening garbage fails with FormatError.
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      int fd = fs.open("junk.nc", pfs::OpenMode::kCreate);
      std::vector<std::byte> junk(64, std::byte{0x11});
      fs.write_at(fd, 0, junk);
      fs.close(fd);
    }
    EXPECT_THROW(NcFile::open(c, fs, "junk.nc"), FormatError);
  });
}

TEST(NcFile, TruncatedHeaderIsRejectedBeforeAllocation) {
  // Cut the file inside its header: the u32 header length at offset 4 now
  // runs past the end of the file, and both readers must say so instead of
  // sizing a buffer from it.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    NcFile nc = NcFile::create(c, fs, "t.nc");
    int d = nc.def_dim("n", 8);
    nc.def_var("x", NcType::kFloat, {d});
    nc.enddef();
    nc.close();
  });
  stor::ObjectStore& store = fs.store();
  std::vector<std::byte> bytes(store.size("t.nc"));
  store.read_at("t.nc", 0, bytes);
  std::uint32_t header_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    header_bytes |= std::uint32_t{static_cast<std::uint8_t>(bytes[4 + i])}
                    << (8 * i);
  }
  bytes.resize(8 + header_bytes / 2);
  store.create("t.nc");
  store.write_at("t.nc", 0, bytes);

  Runtime one(rparams(1));
  one.run([&](Comm&) {
    EXPECT_THROW(read_nc_header(fs, "t.nc"), FormatError);
  });
  // Rank 0 reads the header for the whole job; its error ends the run.
  EXPECT_THROW(rt.run([&](Comm& c) { NcFile::open(c, fs, "t.nc"); }),
               FormatError);
}

TEST(NcFile, SingleSynchronisationPerDefinePhase) {
  // Creating many variables must NOT scale synchronisation like HDF5's
  // per-dataset create/close: time the define phase of 64 variables and
  // compare against 64 barrier round-trips.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(8));
  double define_time = 0, barrier_time = 0;
  rt.run([&](Comm& c) {
    c.barrier();
    double t0 = c.proc().now();
    NcFile nc = NcFile::create(c, fs, "many.nc");
    int d = nc.def_dim("n", 4);
    for (int i = 0; i < 64; ++i) {
      nc.def_var("v" + std::to_string(i), NcType::kFloat, {d});
    }
    nc.enddef();
    c.barrier();
    if (c.rank() == 0) define_time = c.proc().now() - t0;
    nc.close();

    c.barrier();
    t0 = c.proc().now();
    for (int i = 0; i < 64; ++i) c.barrier();
    if (c.rank() == 0) barrier_time = c.proc().now() - t0;
  });
  EXPECT_LT(define_time, barrier_time);
}

}  // namespace
}  // namespace paramrio::pnetcdf
