// Unit tests for the simulated parallel file systems: data correctness,
// descriptor semantics, and the timing behaviours the paper's figures hinge
// on (stripe parallelism, per-request overheads, SMP channel queueing,
// local-disk scaling).
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "pfs/local_disk_fs.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "pfs/striping.hpp"
#include "sim/engine.hpp"

namespace paramrio {
namespace {

using pfs::OpenMode;
using sim::Engine;
using sim::Proc;

Engine::Options opts(int n) {
  Engine::Options o;
  o.nprocs = n;
  return o;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

TEST(Striping, ChunkDecomposition) {
  std::vector<pfs::StripeChunk> chunks;
  pfs::for_each_stripe_chunk(100, 250, /*stripe=*/128, /*servers=*/3,
                             [&](const pfs::StripeChunk& c) {
                               chunks.push_back(c);
                             });
  // [100,350) over 128-byte stripes: [100,128)=28 on s0, [128,256)=128 on s1,
  // [256,350)=94 on s2.
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].server, 0);
  EXPECT_EQ(chunks[0].length, 28u);
  EXPECT_EQ(chunks[0].server_offset, 100u);
  EXPECT_EQ(chunks[1].server, 1);
  EXPECT_EQ(chunks[1].length, 128u);
  EXPECT_EQ(chunks[1].server_offset, 0u);
  EXPECT_EQ(chunks[2].server, 2);
  EXPECT_EQ(chunks[2].length, 94u);
  EXPECT_EQ(chunks[2].server_offset, 0u);
}

TEST(Striping, ServerOffsetsPreserveSequentiality) {
  // Full scan: per-server offsets must be contiguous in server space.
  std::uint64_t next_off_per_server[4] = {0, 0, 0, 0};
  pfs::for_each_stripe_chunk(0, 4096, 256, 4, [&](const pfs::StripeChunk& c) {
    EXPECT_EQ(c.server_offset,
              next_off_per_server[static_cast<std::size_t>(c.server)]);
    next_off_per_server[static_cast<std::size_t>(c.server)] += c.length;
  });
}

TEST(LocalFs, WriteReadRoundTrip) {
  pfs::LocalFsParams p;
  pfs::LocalFs fs(p);
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("file", OpenMode::kCreate);
    auto data = pattern(10000);
    fs.write_at(fd, 123, data);
    std::vector<std::byte> out(10000);
    fs.read_at(fd, 123, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(fs.size(fd), 10123u);
    fs.close(fd);
  });
}

TEST(LocalFs, BadDescriptorAndModeChecks) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Engine::run(opts(1), [&](Proc&) {
    EXPECT_THROW(fs.open("absent", OpenMode::kRead), IoError);
    int fd = fs.open("f", OpenMode::kCreate);
    fs.close(fd);
    std::vector<std::byte> b(1);
    EXPECT_THROW(fs.read_at(fd, 0, b), IoError);
    int rd = fs.open("f", OpenMode::kRead);
    EXPECT_THROW(fs.write_at(rd, 0, b), IoError);
  });
}

TEST(LocalFs, CreateTruncatesExisting) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(100));
    fs.close(fd);
    int fd2 = fs.open("f", OpenMode::kCreate);
    EXPECT_EQ(fs.size(fd2), 0u);
    fs.close(fd2);
  });
}

TEST(LocalFs, CloseUnknownFdThrowsWithContext) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Engine::run(opts(1), [&](Proc&) {
    try {
      fs.close(77);
      FAIL() << "close(77) should throw";
    } catch (const IoError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("close"), std::string::npos) << what;
      EXPECT_NE(what.find("77"), std::string::npos) << what;
      EXPECT_NE(what.find("xfs"), std::string::npos) << what;
    }
  });
}

TEST(LocalFs, ReadPastEofThrowsWithContext) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("short", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(100));
    std::vector<std::byte> out(50);
    fs.read_at(fd, 50, out);  // exactly at EOF: fine
    try {
      fs.read_at(fd, 51, out);
      FAIL() << "read past EOF should throw";
    } catch (const IoError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("short"), std::string::npos) << what;
      EXPECT_NE(what.find("EOF"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(fd)), std::string::npos) << what;
    }
    fs.close(fd);
  });
}

// Regression: remove() used to leave the removed path's cached intervals in
// the buffer-cache model, so a file re-created at the same path saw false
// cache hits for data the new file never touched.
TEST(LocalFs, RemoveDropsCachedIntervals) {
  pfs::LocalFs fs(pfs::LocalFsParams{});  // LocalFs enables the cache
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(4096));  // populates cache [0, 4096)
    fs.close(fd);
    fs.remove("f");

    // New file at the same path: [0, 4096) is zero-fill the new file never
    // wrote, but the old file's cached interval covered it.
    int fd2 = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd2, 8192, pattern(100));  // zero-fills [0, 8192), uncached
    std::uint64_t hits_before = fs.cache_hits();
    std::vector<std::byte> out(2048);
    fs.read_at(fd2, 0, out);
    EXPECT_EQ(fs.cache_hits(), hits_before);  // must be a miss
    fs.close(fd2);
  });
}

// The same stale-cache hazard via open(kCreate) truncation instead of
// remove().
TEST(LocalFs, CreateTruncationDropsCachedIntervals) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(4096));  // caches [0, 4096)
    fs.close(fd);
    int fd2 = fs.open("f", OpenMode::kCreate);  // truncates
    fs.write_at(fd2, 4096, pattern(100));       // zero-fills [0, 4096)
    std::uint64_t hits_before = fs.cache_hits();
    std::vector<std::byte> out(1024);
    fs.read_at(fd2, 0, out);
    EXPECT_EQ(fs.cache_hits(), hits_before);  // stale interval must be gone
    fs.close(fd2);
  });
}

TEST(LocalFs, ConcurrentDisjointAccessScalesAcrossDisks) {
  // One proc writing 8 MB vs 8 procs writing 1 MB each to disjoint stripes:
  // the striped volume should serve the parallel case faster than 8x serial.
  pfs::LocalFsParams p;
  p.n_disks = 8;
  p.stripe_size = MiB;

  pfs::LocalFs fs_serial(p);
  auto serial = Engine::run(opts(1), [&](Proc&) {
    int fd = fs_serial.open("f", OpenMode::kCreate);
    auto data = pattern(8 * MiB);
    fs_serial.write_at(fd, 0, data);
    fs_serial.close(fd);
  });

  pfs::LocalFs fs_par(p);
  int fd = fs_par.open("f", OpenMode::kCreate);  // outside the sim: untimed
  auto par = Engine::run(opts(8), [&](Proc& proc) {
    auto data = pattern(MiB);
    fs_par.write_at(fd, static_cast<std::uint64_t>(proc.rank()) * MiB, data);
  });

  // Both should beat a single-spindle time; the parallel run must not be
  // slower than the serial one (both stripe over all 8 disks).
  EXPECT_LE(par.makespan, serial.makespan * 1.5);
}

TEST(StripedFs, RoundTripAndRequestCounting) {
  net::NetworkParams np;
  np.bandwidth = mb_per_s(100);
  pfs::StripedFsParams sp;
  sp.stripe_size = 4 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, 2, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  Engine::run(opts(2), [&](Proc& proc) {
    if (proc.rank() == 0) {
      int fd = fs.open("f", OpenMode::kCreate);
      auto data = pattern(64 * KiB);
      fs.write_at(fd, 0, data);
      std::vector<std::byte> out(64 * KiB);
      fs.read_at(fd, 0, out);
      EXPECT_EQ(out, data);
      fs.close(fd);
    }
  });
  // 64 KiB over 4 KiB stripes = 16 chunks per op, 2 ops.
  EXPECT_EQ(fs.total_server_requests(), 32u);
}

TEST(Layout, StripedFsReportsGeometryOthersReportUnstriped) {
  // The layout() query behind cb_align=auto: StripedFs exposes its stripe
  // unit, server count, and the object's deterministic first server;
  // LocalFs and LocalDiskFs report an unstriped layout (stripe_size 0), so
  // layout-aware clients fall back to classic domains on them.
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 256 * KiB;
  sp.n_io_nodes = 12;
  net::Network nw(np, 1, sp.n_io_nodes);
  pfs::StripedFs striped(sp, nw);
  pfs::Layout l = striped.layout("dump/grid0001");
  EXPECT_TRUE(l.striped());
  EXPECT_EQ(l.stripe_size, 256 * KiB);
  EXPECT_EQ(l.n_servers, 12);
  EXPECT_EQ(l.first_server,
            pfs::object_first_server("dump/grid0001", 12));
  // Different objects may start on different servers, same geometry.
  pfs::Layout l2 = striped.layout("dump/grid0002");
  EXPECT_EQ(l2.stripe_size, l.stripe_size);
  EXPECT_EQ(l2.n_servers, l.n_servers);

  pfs::LocalFs local(pfs::LocalFsParams{});
  EXPECT_FALSE(local.layout("x").striped());
  EXPECT_EQ(local.layout("x").stripe_size, 0u);

  pfs::LocalDiskFs per_node(pfs::LocalDiskFsParams{}, 4);
  pfs::Layout ld = per_node.layout("x");
  EXPECT_FALSE(ld.striped());  // no offset->server mapping to align to
  EXPECT_EQ(ld.n_servers, 4);
}

TEST(StripedFs, SmallStridedRequestsCostMoreThanOneLargeRequest) {
  auto run_with = [](std::uint64_t chunk, int nchunks) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 256 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, 1, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    auto r = Engine::run(opts(1), [&](Proc&) {
      int fd = fs.open("f", OpenMode::kCreate);
      auto data = pattern(chunk);
      for (int i = 0; i < nchunks; ++i) {
        // stride 2x chunk: never sequential
        fs.write_at(fd, static_cast<std::uint64_t>(i) * 2 * chunk, data);
      }
      fs.close(fd);
    });
    return r.makespan;
  };
  double many_small = run_with(8 * KiB, 128);   // 1 MiB total
  double one_large = run_with(MiB, 1);          // 1 MiB total
  EXPECT_GT(many_small, 3.0 * one_large);
}

TEST(StripedFs, SmpChannelSerializesNodeLocalRequests) {
  // 4 procs on ONE SMP node, each writing to a distinct I/O node: without
  // the channel they'd proceed mostly in parallel; with it they queue.
  auto run_with = [](bool smp) {
    net::NetworkParams np;
    np.procs_per_node = 4;
    pfs::StripedFsParams sp;
    sp.stripe_size = MiB;
    sp.n_io_nodes = 4;
    sp.smp_io_channel = smp;
    sp.smp_channel_bandwidth = mb_per_s(50);
    net::Network nw(np, 4, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    int fd = fs.open("f", OpenMode::kCreate);  // outside the sim: untimed
    auto r = Engine::run(opts(4), [&](Proc& proc) {
      auto data = pattern(MiB);
      fs.write_at(fd, static_cast<std::uint64_t>(proc.rank()) * MiB, data);
    });
    return r.makespan;
  };
  EXPECT_GT(run_with(true), 1.5 * run_with(false));
}

TEST(LocalDiskFs, PerRankDisksScale) {
  auto run_with = [](int nprocs) {
    pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, nprocs);
    int fd = fs.open("f", OpenMode::kCreate);  // outside the sim: untimed
    auto r = Engine::run(opts(nprocs), [&](Proc& proc) {
      auto data = pattern(MiB);
      std::uint64_t total = 8 * MiB;
      std::uint64_t share = total / static_cast<std::uint64_t>(proc.nprocs());
      for (std::uint64_t off = 0; off < share; off += MiB) {
        fs.write_at(fd,
                    static_cast<std::uint64_t>(proc.rank()) * share + off,
                    data);
      }
    });
    return r.makespan;
  };
  double t1 = run_with(1);
  double t8 = run_with(8);
  EXPECT_GT(t1, 6.0 * t8);  // near-linear scaling
}

// The EOF check compares by subtraction: an offset near the top of the
// range must not wrap offset + length back inside the file.
TEST(LocalDiskFs, ReadAtAnOffsetThatWrapsIsAnIoError) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 1);
  int fd = fs.open("wrap.dat", OpenMode::kCreate);  // outside the sim
  fs.write_at(fd, 0, pattern(4 * KiB));
  Engine::run(opts(1), [&](Proc&) {
    std::vector<std::byte> out(100);
    try {
      fs.read_at(fd, std::numeric_limits<std::uint64_t>::max() - 9, out);
      FAIL() << "a range that wraps past 2^64 must not pass the EOF check";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("wrap.dat"), std::string::npos) << what;
      EXPECT_NE(what.find("EOF"), std::string::npos) << what;
    }
  });
}

TEST(LocalDiskFs, RemoteReadDetection) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 2);
  int fd = fs.open("f", OpenMode::kCreate);  // outside the sim: untimed
  Engine::run(opts(2), [&](Proc& proc) {
    if (proc.rank() == 0) {
      fs.write_at(fd, 0, pattern(1000));
    }
    proc.advance(1.0);  // rank 0 writes first
    if (proc.rank() == 0) {
      std::vector<std::byte> out(500);
      fs.read_at(fd, 0, out);  // own data: local
    } else {
      std::vector<std::byte> out(500);
      fs.read_at(fd, 200, out);  // rank 1 reading rank 0's bytes: remote
    }
  });
  EXPECT_EQ(fs.remote_reads(), 1u);
}

// Regression (companion to LocalFs.RemoveDropsCachedIntervals): remove()
// used to clear only the base buffer cache, leaving LocalDiskFs's own
// per-path state — write ownership and per-rank page caches — behind.  A
// file re-created at the same path then inherited the previous generation's
// owners, so reads of zero-fill the new file never wrote looked node-local
// (suppressing remote_reads) and were even served from the stale page cache.
TEST(LocalDiskFs, RemoveDropsOwnershipAndPageCache) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 1);
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(4096));  // rank 0 owns + caches [0, 4096)
    fs.close(fd);
    fs.remove("f");

    int fd2 = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd2, 4096, pattern(100));  // zero-fills [0, 4096), unowned
    std::vector<std::byte> out(2048);
    fs.read_at(fd2, 0, out);  // bytes the new file never wrote
    fs.close(fd2);
  });
  // The range is unowned in the new file's generation, so the read must
  // count as remote — stale ownership would have made it look local.
  EXPECT_EQ(fs.remote_reads(), 1u);
}

// The same stale-state hazard via open(kCreate) truncation.
TEST(LocalDiskFs, CreateTruncationDropsOwnershipAndPageCache) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 1);
  Engine::run(opts(1), [&](Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, pattern(4096));
    fs.close(fd);
    int fd2 = fs.open("f", OpenMode::kCreate);  // truncates
    fs.write_at(fd2, 4096, pattern(100));
    std::vector<std::byte> out(2048);
    fs.read_at(fd2, 0, out);
    fs.close(fd2);
  });
  EXPECT_EQ(fs.remote_reads(), 1u);
}

// An empty request leaves nothing resident in the page cache, so a second
// empty read at the same offset pays the client and request overheads again
// (no seek: the head is already there).  Empty reads never count as remote.
TEST(LocalDiskFs, EmptyReadIsNeverServedFromThePageCache) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 1);
  int fd = fs.open("f", OpenMode::kCreate);  // outside the sim: untimed
  fs.write_at(fd, 0, pattern(8192));
  std::vector<double> cost;
  Engine::run(opts(1), [&](Proc& proc) {
    for (int i = 0; i < 2; ++i) {
      const double start = proc.now();
      fs.read_at(fd, 4096, std::span<std::byte>());
      cost.push_back(proc.now() - start);
    }
  });
  const pfs::LocalDiskFsParams p;
  ASSERT_EQ(cost.size(), 2u);
  EXPECT_NEAR(cost[0], p.client_overhead + p.disk.seek_time +
                           p.disk.request_overhead,
              1e-12);
  EXPECT_NEAR(cost[1], p.client_overhead + p.disk.request_overhead, 1e-12);
  EXPECT_EQ(fs.remote_reads(), 0u);
}

TEST(LocalDiskFs, OwnershipSplitsOnOverwrite) {
  pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, 2);
  int fd = fs.open("f", OpenMode::kCreate);  // outside the sim: untimed
  Engine::run(opts(2), [&](Proc& proc) {
    if (proc.rank() == 0) {
      fs.write_at(fd, 0, pattern(1000));
    }
    proc.advance(1.0);
    if (proc.rank() == 1) {
      fs.write_at(fd, 400, pattern(100));  // take over the middle
    }
    proc.advance(1.0);
    if (proc.rank() == 0) {
      std::vector<std::byte> out(100);
      fs.read_at(fd, 0, out);    // head: still rank 0's — local
      fs.read_at(fd, 450, out);  // middle: now rank 1's — remote
    }
  });
  EXPECT_EQ(fs.remote_reads(), 1u);
}

}  // namespace
}  // namespace paramrio
