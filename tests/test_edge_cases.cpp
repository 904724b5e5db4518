// Edge-case sweep across modules: empty payloads, degenerate shapes, prime
// processor counts, and boundary values the main suites don't reach.
#include <gtest/gtest.h>

#include <cstring>

#include "amr/refine.hpp"
#include "amr/universe.hpp"
#include "mpi/comm.hpp"
#include "pfs/local_fs.hpp"

namespace paramrio {
namespace {

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

TEST(EdgeComm, EmptyMessagesFlowThroughEverything) {
  mpi::Runtime rt(rparams(3));
  rt.run([](mpi::Comm& c) {
    if (c.rank() == 0) c.send(1, 1, {});
    if (c.rank() == 1) {
      EXPECT_TRUE(c.recv(0, 1).empty());
    }

    mpi::Bytes empty;
    c.bcast(empty, 0);
    EXPECT_TRUE(empty.empty());

    auto gathered = c.gatherv({}, 0);
    if (c.rank() == 0) {
      for (const auto& b : gathered) EXPECT_TRUE(b.empty());
    }
    std::vector<mpi::Bytes> outs(3);
    auto ins = c.alltoallv(outs);
    for (const auto& b : ins) EXPECT_TRUE(b.empty());
  });
}

TEST(EdgeComm, MegabyteCollectivePayloadsSurvive) {
  mpi::Runtime rt(rparams(4));
  rt.run([](mpi::Comm& c) {
    mpi::Bytes mine(MiB, static_cast<std::byte>(c.rank() + 1));
    auto all = c.allgatherv(mine);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(), MiB);
      EXPECT_EQ(all[static_cast<std::size_t>(r)][MiB / 2],
                static_cast<std::byte>(r + 1));
    }
    mpi::Bytes big;
    if (c.rank() == 2) big.assign(2 * MiB, std::byte{0x5C});
    c.bcast(big, 2);
    ASSERT_EQ(big.size(), 2 * MiB);
    EXPECT_EQ(big[MiB], std::byte{0x5C});
  });
}

TEST(EdgeComm, PrimeRankCountCollectives) {
  mpi::Runtime rt(rparams(7));
  rt.run([](mpi::Comm& c) {
    EXPECT_EQ(c.allreduce_sum(std::uint64_t{1}), 7u);
    mpi::Bytes mine(static_cast<std::size_t>(c.rank()),
                    static_cast<std::byte>(c.rank()));
    auto all = c.allgatherv(mine);
    for (int r = 0; r < 7; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r));
    }
  });
}

TEST(EdgeRefine, FullyFlaggedGridIsOneBox) {
  amr::Array3f density(8, 8, 8, 100.0f);
  auto boxes =
      amr::cluster_flags(amr::flag_overdense(density, 4.0), amr::RefineParams{});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].cells(), 512u);
}

TEST(EdgeRefine, SingleFlaggedCell) {
  amr::Array3f density(8, 8, 8, 1.0f);
  density.at(3, 4, 5) = 99.0f;
  auto boxes =
      amr::cluster_flags(amr::flag_overdense(density, 4.0), amr::RefineParams{});
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].cells(), 1u);
  EXPECT_EQ(boxes[0].start, (std::array<std::uint64_t, 3>{3, 4, 5}));
}

TEST(EdgeUniverse, ZeroParticlesRequested) {
  amr::Universe u(3, 2);
  amr::GridDescriptor region;
  region.dims = {4, 4, 4};
  amr::ParticleSet p = u.make_particles(0, 0, region, 0.0, Rng(1));
  EXPECT_EQ(p.size(), 0u);
}

TEST(EdgeUniverse, ParticlesStayInsideTheirRegion) {
  amr::Universe u(5, 6);
  amr::GridDescriptor region;
  region.left_edge = {0.25, 0.5, 0.0};
  region.right_edge = {0.5, 0.75, 0.125};
  region.dims = {8, 8, 4};
  amr::ParticleSet p = u.make_particles(500, 0, region, 1.0, Rng(2));
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(p.pos[0][i], 0.25);
    EXPECT_LT(p.pos[0][i], 0.5);
    EXPECT_GE(p.pos[1][i], 0.5);
    EXPECT_LT(p.pos[1][i], 0.75);
    EXPECT_GE(p.pos[2][i], 0.0);
    EXPECT_LT(p.pos[2][i], 0.125);
  }
}

TEST(EdgeFs, ManySmallFilesKeepDistinctContents) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    for (int i = 0; i < 64; ++i) {
      int fd = fs.open("f" + std::to_string(i), pfs::OpenMode::kCreate);
      std::vector<std::byte> data(64, static_cast<std::byte>(i));
      fs.write_at(fd, 0, data);
      fs.close(fd);
    }
    for (int i = 0; i < 64; ++i) {
      int fd = fs.open("f" + std::to_string(i), pfs::OpenMode::kRead);
      std::vector<std::byte> out(64);
      fs.read_at(fd, 0, out);
      for (auto b : out) EXPECT_EQ(b, static_cast<std::byte>(i));
      fs.close(fd);
    }
  });
}

TEST(EdgeFs, ZeroByteWriteAndReadAreLegal) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options o;
  o.nprocs = 1;
  sim::Engine::run(o, [&](sim::Proc&) {
    int fd = fs.open("z", pfs::OpenMode::kCreate);
    fs.write_at(fd, 0, {});
    std::vector<std::byte> none;
    fs.read_at(fd, 0, none);
    EXPECT_EQ(fs.size(fd), 0u);
    fs.close(fd);
  });
}

}  // namespace
}  // namespace paramrio
