// Integration tests for the MPI-IO layer: file views, data sieving,
// two-phase collective I/O — verified by reading every byte back.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mpi/io/file.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"

namespace paramrio::mpi::io {
namespace {

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> iota_bytes(std::size_t n, unsigned seed = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 7 + seed) & 0xff);
  return v;
}

/// Block decomposition of [0, n) into `parts`; returns (start, count) of
/// part `i` (first n%parts parts get one extra).
std::pair<std::uint64_t, std::uint64_t> block(std::uint64_t n, int parts,
                                              int i) {
  std::uint64_t base = n / static_cast<std::uint64_t>(parts);
  std::uint64_t rem = n % static_cast<std::uint64_t>(parts);
  auto ui = static_cast<std::uint64_t>(i);
  std::uint64_t start = ui * base + std::min(ui, rem);
  std::uint64_t count = base + (ui < rem ? 1 : 0);
  return {start, count};
}

TEST(MpiIoFile, IndependentContiguousRoundTrip) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "data", pfs::OpenMode::kCreate);
    auto data = iota_bytes(4096);
    f.write_at(100, data);
    std::vector<std::byte> out(4096);
    f.read_at(100, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(f.size(), 4196u);
    f.close();
  });
}

TEST(MpiIoFile, ViewDisplacementOffsetsAccesses) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "data", pfs::OpenMode::kCreate);
    f.set_view(1000);
    auto data = iota_bytes(64);
    f.write_at(0, data);
    EXPECT_EQ(f.size(), 1064u);
    f.set_view(0);
    std::vector<std::byte> out(64);
    f.read_at(1000, out);
    EXPECT_EQ(out, data);
    f.close();
  });
}

TEST(MpiIoFile, StridedViewIndependentWriteAndReadBack) {
  // A vector filetype: every other 8-byte block visible.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "data", pfs::OpenMode::kCreate);
    // Pre-fill 256 bytes so holes have known content.
    auto bg = std::vector<std::byte>(256, std::byte{0xEE});
    f.write_at(0, bg);
    f.set_view(0, Datatype::vector(16, 8, 16));
    auto data = iota_bytes(128, 5);
    f.write_at(0, data);
    std::vector<std::byte> out(128);
    f.read_at(0, out);
    EXPECT_EQ(out, data);
    // Holes untouched.
    f.set_view(0);
    std::vector<std::byte> hole(8);
    f.read_at(8, hole);
    for (auto b : hole) EXPECT_EQ(b, std::byte{0xEE});
    f.close();
  });
}

TEST(MpiIoFile, FlattenCacheSurvivesInterleavedViews) {
  // Regression: the view-flatten memo used to hold a single entry, so a rank
  // alternating between two installed views (ENZO's field/boundary pattern)
  // evicted it on every call and re-flattened — zero hits.  The keyed LRU
  // keeps both flattenings live across the alternation.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "data", pfs::OpenMode::kCreate);
    f.write_at(0, iota_bytes(4096));
    std::vector<std::byte> buf(32);
    const int rounds = 8;
    for (int i = 0; i < rounds; ++i) {
      f.set_view(0, Datatype::indexed({{0, 16}, {32, 16}}));
      f.read_at(0, buf);
      f.set_view(0, Datatype::indexed({{16, 16}, {48, 16}}));
      f.read_at(0, buf);
    }
    // Only the first flattening of each view misses.
    EXPECT_EQ(f.stats().view_flatten_cache_hits,
              static_cast<std::uint64_t>(2 * rounds - 2));
    f.close();
  });
}

TEST(MpiIoFile, FlattenCacheEvictsBeyondCapacityAndStaysCorrect) {
  // Cycle more distinct views than the LRU holds: every access misses (the
  // working set exceeds capacity), but reads stay byte-correct.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "data", pfs::OpenMode::kCreate);
    auto data = iota_bytes(4096, 3);
    f.write_at(0, data);
    const int nviews = 12;  // > kFlattenCacheCapacity
    for (int round = 0; round < 2; ++round) {
      for (int v = 0; v < nviews; ++v) {
        f.set_view(0, Datatype::indexed(
                          {{static_cast<std::uint64_t>(v) * 64, 16}}));
        std::vector<std::byte> out(16);
        f.read_at(0, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(out[i],
                    data[static_cast<std::size_t>(v) * 64 + i]);
        }
      }
    }
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 0u);
    f.close();
  });
}

TEST(MpiIoFile, SievingOffMatchesSievingOn) {
  auto run_once = [](bool sieve) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(1));
    std::vector<std::byte> result(512);
    rt.run([&](Comm& c) {
      Hints h;
      h.data_sieving_reads = sieve;
      h.data_sieving_writes = sieve;
      File f(c, fs, "data", pfs::OpenMode::kCreate, h);
      f.set_view(0, Datatype::vector(64, 8, 24));
      f.write_at(0, iota_bytes(512, 9));
      f.read_at(0, result);
      f.close();
    });
    return result;
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(MpiIoFile, SievingReducesFsRequests) {
  auto requests = [](bool sieve) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(1));
    std::uint64_t reqs = 0;
    auto res = rt.run([&](Comm& c) {
      Hints h;
      h.data_sieving_reads = sieve;
      File f(c, fs, "data", pfs::OpenMode::kCreate, h);
      f.write_at(0, iota_bytes(64 * KiB));
      f.set_view(0, Datatype::vector(512, 16, 128));
      std::vector<std::byte> out(512 * 16);
      f.read_at(0, out);
      f.close();
    });
    reqs = res.stats[0].io_requests;
    return reqs;
  };
  EXPECT_LT(requests(true), requests(false) / 10);
}

TEST(MpiIoFile, SieveWindowSmallerThanHull) {
  // Force multiple sieve windows: hull 64 KiB, buffer 4 KiB.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.ds_buffer_size = 4 * KiB;
    File f(c, fs, "data", pfs::OpenMode::kCreate, h);
    f.write_at(0, iota_bytes(64 * KiB, 3));
    f.set_view(0, Datatype::vector(256, 16, 256));
    std::vector<std::byte> out(256 * 16);
    f.read_at(0, out);
    // Verify against direct extraction.
    for (std::size_t i = 0; i < 256; ++i) {
      for (std::size_t j = 0; j < 16; ++j) {
        EXPECT_EQ(out[i * 16 + j],
                  static_cast<std::byte>(((i * 256 + j) * 7 + 3) & 0xff));
      }
    }
    EXPECT_GT(f.stats().sieve_windows, 8u);
    f.close();
  });
}

class TwoPhaseSweep : public ::testing::TestWithParam<int> {};

TEST_P(TwoPhaseSweep, CollectiveWriteOf3DBlocksReadsBackExactly) {
  // The paper's core pattern: a (Block,Block,Block)-partitioned 3-D array
  // written collectively through subarray views, then read back serially.
  const int p = GetParam();
  const std::uint64_t n = 16;  // 16^3 doubles
  const std::uint64_t elem = 8;

  // Partition processors into a 3-D grid (like MPI_Dims_create, crude).
  int px = 1, py = 1, pz = 1;
  {
    int rest = p;
    while (rest % 2 == 0) {
      if (px <= py && px <= pz) {
        px *= 2;
      } else if (py <= pz) {
        py *= 2;
      } else {
        pz *= 2;
      }
      rest /= 2;
    }
    pz *= rest;
  }
  ASSERT_EQ(px * py * pz, p);

  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    int r = c.rank();
    int iz = r / (px * py);
    int iy = (r / px) % py;
    int ix = r % px;
    auto [zs, zc] = block(n, pz, iz);
    auto [ys, yc] = block(n, py, iy);
    auto [xs, xc] = block(n, px, ix);

    File f(c, fs, "array", pfs::OpenMode::kCreate);
    f.set_view(0, Datatype::subarray({n, n, n}, {zc, yc, xc}, {zs, ys, xs},
                                     elem));
    // Fill the block with globally-determined values: f(z,y,x).
    std::vector<std::byte> buf(zc * yc * xc * elem);
    std::size_t k = 0;
    for (std::uint64_t z = zs; z < zs + zc; ++z) {
      for (std::uint64_t y = ys; y < ys + yc; ++y) {
        for (std::uint64_t x = xs; x < xs + xc; ++x) {
          double v = static_cast<double>((z * n + y) * n + x);
          std::memcpy(buf.data() + k, &v, elem);
          k += elem;
        }
      }
    }
    f.write_at_all(0, buf);

    // Collective read back into the same blocks.
    std::vector<std::byte> back(buf.size());
    f.read_at_all(0, back);
    EXPECT_EQ(back, buf);
    f.close();
  });

  // Serial byte-level validation of the file contents.
  std::vector<std::byte> all(n * n * n * elem);
  fs.store().read_at("array", 0, all);
  for (std::uint64_t i = 0; i < n * n * n; ++i) {
    double v;
    std::memcpy(&v, all.data() + i * elem, elem);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(i)) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, TwoPhaseSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 12));

TEST(TwoPhase, SmallCollectiveBufferForcesManyWindows) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  std::uint64_t windows = 0;
  rt.run([&](Comm& c) {
    Hints h;
    h.cb_buffer_size = 2 * KiB;  // hull is 32 KiB -> many windows
    File f(c, fs, "array", pfs::OpenMode::kCreate, h);
    // Partition the MIDDLE dimension so the ranks' accesses interleave
    // (a z-slab split would take the independent fast path).
    auto [ys, yc] = block(n, p, c.rank());
    f.set_view(0,
               Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    std::vector<std::byte> buf(n * yc * n * elem, std::byte{7});
    f.write_at_all(0, buf);
    std::vector<std::byte> back(buf.size());
    f.read_at_all(0, back);
    EXPECT_EQ(back, buf);
    if (c.rank() == 0) windows = f.stats().two_phase_windows;
    f.close();
  });
  EXPECT_GE(windows, 2u);
}

TEST(TwoPhase, NonInterleavedFallsBackToIndependent) {
  // Slab partition along the slowest dim = contiguous non-interleaved
  // ranges: the collective should take the independent fast path (no
  // two-phase windows recorded).
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(p));
  rt.run([&](Comm& c) {
    File f(c, fs, "flat", pfs::OpenMode::kCreate);
    f.set_view(static_cast<std::uint64_t>(c.rank()) * 1024);
    auto data = iota_bytes(1024, static_cast<unsigned>(c.rank()));
    f.write_at_all(0, data);
    std::vector<std::byte> back(1024);
    f.read_at_all(0, back);
    EXPECT_EQ(back, data);
    EXPECT_EQ(f.stats().two_phase_windows, 0u);
    f.close();
  });
}

TEST(TwoPhase, InterleavedCollectiveBeatsIndependentOnStridedPattern) {
  // Cost check: for a finely interleaved pattern on a seek-heavy FS, the
  // two-phase collective must be faster than independent strided access.
  const int p = 8;
  const std::uint64_t n = 32, elem = 8;

  auto run_mode = [&](bool collective) {
    pfs::LocalFsParams fp;
    fp.disk.seek_time = ms(8);
    pfs::LocalFs fs(fp);
    Runtime rt(rparams(p));
    auto res = rt.run([&](Comm& c) {
      File f(c, fs, "a", pfs::OpenMode::kCreate);
      auto [ys, yc] = block(n, p, c.rank());
      // Partition the MIDDLE dimension: every rank's rows interleave.
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem, std::byte{1});
      if (collective) {
        f.write_at_all(0, buf);
      } else {
        f.write_at(0, buf);
        c.barrier();
      }
      f.close();
    });
    return res.makespan;
  };
  double t_coll = run_mode(true);
  double t_ind = run_mode(false);
  EXPECT_LT(t_coll, t_ind);
}

TEST(TwoPhase, WriteThenCollectiveReadWithDifferentDecomposition) {
  // Write with a z-slab decomposition on 4 ranks, read back with an x-slab
  // decomposition: every byte crosses ranks.
  const std::uint64_t n = 12, elem = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    auto [zs, zc] = block(n, 4, c.rank());
    {
      File f(c, fs, "a", pfs::OpenMode::kCreate);
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {zc, n, n}, {zs, 0, 0}, elem));
      std::vector<std::byte> buf(zc * n * n * elem);
      std::size_t k = 0;
      for (std::uint64_t z = zs; z < zs + zc; ++z) {
        for (std::uint64_t yx = 0; yx < n * n; ++yx) {
          std::uint32_t v = static_cast<std::uint32_t>(z * n * n + yx);
          std::memcpy(buf.data() + k, &v, elem);
          k += elem;
        }
      }
      f.write_at_all(0, buf);
      f.close();
    }
    {
      auto [xs, xc] = block(n, 4, c.rank());
      File f(c, fs, "a", pfs::OpenMode::kRead);
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, n, xc}, {0, 0, xs}, elem));
      std::vector<std::byte> buf(n * n * xc * elem);
      f.read_at_all(0, buf);
      std::size_t k = 0;
      for (std::uint64_t z = 0; z < n; ++z) {
        for (std::uint64_t y = 0; y < n; ++y) {
          for (std::uint64_t x = xs; x < xs + xc; ++x) {
            std::uint32_t v;
            std::memcpy(&v, buf.data() + k, elem);
            EXPECT_EQ(v, static_cast<std::uint32_t>((z * n + y) * n + x));
            k += elem;
          }
        }
      }
      f.close();
    }
  });
}

TEST(TwoPhase, RestrictedAggregatorCount) {
  const std::uint64_t n = 16, elem = 8;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(8));
  rt.run([&](Comm& c) {
    Hints h;
    h.cb_nodes = 2;  // only ranks 0 and 1 aggregate
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto [ys, yc] = block(n, 8, c.rank());
    f.set_view(0, Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    std::vector<std::byte> buf(n * yc * n * elem,
                               static_cast<std::byte>(c.rank() + 1));
    f.write_at_all(0, buf);
    std::vector<std::byte> back(buf.size());
    f.read_at_all(0, back);
    EXPECT_EQ(back, buf);
    if (c.rank() >= 2) {
      EXPECT_EQ(f.stats().two_phase_windows, 0u);
    }
    f.close();
  });
}

TEST(TwoPhase, CollectiveReadPastEofZeroFills) {
  // Regression: interleaved views whose convex hull extends past EOF.  The
  // aggregator used to issue a single read_at spanning its whole window,
  // which threw once the union hull crossed the file size; it must clamp at
  // EOF and zero-fill the tail instead (MPI semantics: reading a hole or
  // past EOF yields undefined-but-harmless bytes, not an error — we define
  // them as zero).
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    File f(c, fs, "short", pfs::OpenMode::kCreate);
    if (c.rank() == 0) f.write_at(0, iota_bytes(60, 1));
    c.barrier();
    // rank 0 sees [0,16)+[32,48), rank 1 sees [16,32)+[48,64): the hulls
    // interleave (two-phase engages, hull [0,64)) and aggregator 1's window
    // [32,64) extends past EOF at 60.
    if (c.rank() == 0) {
      f.set_view(0, Datatype::indexed({{0, 16}, {32, 16}}));
    } else {
      f.set_view(0, Datatype::indexed({{16, 16}, {48, 16}}));
    }
    std::vector<std::byte> out(32);
    f.read_at_all(0, out);
    auto file_byte = [](std::uint64_t off) {
      return static_cast<std::byte>((off * 7 + 1) & 0xff);
    };
    if (c.rank() == 0) {
      EXPECT_GE(f.stats().two_phase_windows, 1u);
      for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], file_byte(i));
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(out[16 + i], file_byte(32 + i));
    } else {
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], file_byte(16 + i));
      for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(out[16 + i], file_byte(48 + i));
      // The four bytes past EOF come back as zeros.
      for (std::size_t i = 12; i < 16; ++i)
        EXPECT_EQ(out[16 + i], std::byte{0});
    }
    f.close();
  });
}

TEST(TwoPhase, FastPathAndEmptyCollectivesAreCounted) {
  // Empty collective calls and the non-interleaved fallback used to bypass
  // the stats block entirely; both now count as collective_fastpath.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    File f(c, fs, "fp", pfs::OpenMode::kCreate);
    f.write_at_all(0, {});  // all ranks empty: early return
    EXPECT_EQ(f.stats().collective_fastpath, 1u);
    // Disjoint ascending ranges: non-interleaved, independent fallback.
    f.set_view(static_cast<std::uint64_t>(c.rank()) * 1024);
    f.write_at_all(0, iota_bytes(1024, static_cast<unsigned>(c.rank())));
    EXPECT_EQ(f.stats().collective_fastpath, 2u);
    std::vector<std::byte> back(1024);
    f.read_at_all(0, back);
    EXPECT_EQ(f.stats().collective_fastpath, 3u);
    EXPECT_EQ(f.stats().two_phase_windows, 0u);
    f.close();
  });
}

TEST(TwoPhase, WindowBufferSizedToHullNotHint) {
  // The aggregator's exchange window must be sized to the actual domain
  // extent, not blindly to cb_buffer_size (default 4 MiB) — a 1 KiB
  // collective must not allocate megabytes per aggregator.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    File f(c, fs, "small", pfs::OpenMode::kCreate);
    if (c.rank() == 0) {
      f.set_view(0, Datatype::indexed({{0, 256}, {512, 256}}));
    } else {
      f.set_view(0, Datatype::indexed({{256, 256}, {768, 256}}));
    }
    f.write_at_all(0, iota_bytes(512, static_cast<unsigned>(c.rank())));
    EXPECT_GE(f.stats().two_phase_windows, 1u);
    EXPECT_GT(f.stats().cb_peak_window_bytes, 0u);
    EXPECT_LE(f.stats().cb_peak_window_bytes, 512u);  // hull share, not 4 MiB
    f.close();
  });
  // Both ranks' pieces landed.
  std::vector<std::byte> all(1024);
  fs.store().read_at("small", 0, all);
  auto a = iota_bytes(512, 0), b = iota_bytes(512, 1);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(all[i], a[i]);
    EXPECT_EQ(all[256 + i], b[i]);
    EXPECT_EQ(all[512 + i], a[256 + i]);
    EXPECT_EQ(all[768 + i], b[256 + i]);
  }
}

TEST(TwoPhase, StripeAlignedDomainsCutServerRequestsAndTokens) {
  // The tentpole: on a striped fs, cb_align=auto queries the Layout and
  // hands each I/O server's stripes to a single aggregator.  Versus the
  // classic equal-share domains (cb_align=1), the same interleaved write
  // must hit the servers with fewer requests AND ping-pong fewer write
  // tokens, at identical file contents.
  const int p = 8;
  const std::uint64_t n = 32, elem = 8;  // 256 KiB over 64 KiB stripes
  struct Outcome {
    std::uint64_t requests = 0, tokens = 0;
    std::uint64_t aligned = 0, straddle = 0, saves = 0;
    std::vector<std::byte> bytes;
  };
  auto run_with = [&](std::uint64_t cb_align) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 64 * KiB;
    sp.n_io_nodes = 4;
    sp.write_lock_cost = ms(5);
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    RuntimeParams rp = rparams(p);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    Runtime rt(rp);
    std::vector<FileStats> stats(p);
    rt.run([&](Comm& c) {
      Hints h;
      h.cb_align = cb_align;
      File f(c, fs, "a", pfs::OpenMode::kCreate, h);
      auto [ys, yc] = block(n, p, c.rank());
      // Middle-dim partition: every rank's rows interleave.
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem,
                                 static_cast<std::byte>(c.rank() + 1));
      f.write_at_all(0, buf);
      stats[static_cast<std::size_t>(c.rank())] = f.stats();
      f.close();
    });
    Outcome o;
    o.requests = fs.total_server_requests();
    o.tokens = fs.write_token_transfers();
    for (const FileStats& s : stats) {
      o.aligned += s.cb_aligned_windows;
      o.straddle += s.cb_straddle_windows;
      o.saves += s.cb_token_saves;
    }
    o.bytes.resize(n * n * n * elem);
    fs.store().read_at("a", 0, o.bytes);
    return o;
  };
  Outcome baseline = run_with(1);
  Outcome aligned = run_with(Hints::kCbAlignAuto);
  // Equal-share domains cut the 64 KiB stripes at 32 KiB boundaries...
  EXPECT_GT(baseline.straddle, 0u);
  EXPECT_EQ(baseline.saves, 0u);
  // ...while layout-aware domains land every window on the stripe grid.
  EXPECT_GT(aligned.aligned, 0u);
  EXPECT_EQ(aligned.straddle, 0u);
  EXPECT_GT(aligned.saves, 0u);
  // The point of the exercise: fewer server requests, fewer token transfers,
  // same bytes.
  EXPECT_LT(aligned.requests, baseline.requests);
  EXPECT_LT(aligned.tokens, baseline.tokens);
  EXPECT_EQ(aligned.bytes, baseline.bytes);
}

TEST(MpiIoFile, CollectiveOpenCreateTruncatesOnce) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(4));
  rt.run([&](Comm& c) {
    {
      File f(c, fs, "x", pfs::OpenMode::kCreate);
      f.write_at(static_cast<std::uint64_t>(c.rank()) * 16,
                 iota_bytes(16, static_cast<unsigned>(c.rank())));
      f.close();
    }
    {
      File f(c, fs, "x", pfs::OpenMode::kRead);
      EXPECT_EQ(f.size(), 64u);  // all four writes survived the single create
      f.close();
    }
  });
}


TEST(MpiIoFile, ErrorPaths) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    // Opening a missing file for read fails.
    EXPECT_THROW(File(c, fs, "missing", pfs::OpenMode::kRead), IoError);

    File f(c, fs, "e", pfs::OpenMode::kCreate);
    f.write_at(0, iota_bytes(64));
    // Reading past EOF fails loudly, not silently.
    std::vector<std::byte> big(128);
    EXPECT_THROW(f.read_at(0, big), IoError);
    // Double close is a logic error.
    f.close();
    EXPECT_THROW(f.close(), LogicError);

    // Writing through a read-only open fails.
    File r(c, fs, "e", pfs::OpenMode::kRead);
    EXPECT_THROW(r.write_at(0, iota_bytes(8)), IoError);
    r.close();
  });
}

TEST(MpiIoFile, ZeroByteOpsAreNoops) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    File f(c, fs, "z", pfs::OpenMode::kCreate);
    f.write_at(0, {});
    std::vector<std::byte> none;
    f.read_at(0, none);
    // Zero-size collective participation still synchronises.
    f.write_at_all(0, {});
    f.read_at_all(0, {});
    EXPECT_EQ(f.size(), 0u);
    f.close();
  });
}

TEST(MpiIoFile, ViewPersistsAcrossCalls) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "v", pfs::OpenMode::kCreate);
    f.set_view(100, Datatype::vector(4, 8, 16));
    f.write_at(0, iota_bytes(16, 1));   // first two blocks
    f.write_at(16, iota_bytes(16, 2));  // next two, same view
    std::vector<std::byte> all(32);
    f.read_at(0, all);
    auto lo = iota_bytes(16, 1), hi = iota_bytes(16, 2);
    EXPECT_TRUE(std::equal(all.begin(), all.begin() + 16, lo.begin()));
    EXPECT_TRUE(std::equal(all.begin() + 16, all.end(), hi.begin()));
    f.close();
  });
}


TEST(WriteBehind, AppendPatternCoalescesIntoFewRequests) {
  auto run_with = [](std::uint64_t wb) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(1));
    std::uint64_t fs_reqs = 0, absorbed = 0, flushes = 0;
    auto res = rt.run([&](Comm& c) {
      Hints h;
      h.wb_buffer_size = wb;
      File f(c, fs, "wb", pfs::OpenMode::kCreate, h);
      // 256 appends of 1 KiB each.
      for (int i = 0; i < 256; ++i) {
        f.write_at(static_cast<std::uint64_t>(i) * KiB, iota_bytes(KiB,
                   static_cast<unsigned>(i)));
      }
      f.close();
      absorbed = f.stats().wb_absorbed;
      flushes = f.stats().wb_flushes;
    });
    fs_reqs = res.stats[0].io_requests;
    // Contents must be correct either way.
    std::vector<std::byte> all(256 * KiB);
    fs.store().read_at("wb", 0, all);
    for (int i = 0; i < 256; ++i) {
      auto expect = iota_bytes(KiB, static_cast<unsigned>(i));
      for (std::size_t b = 0; b < KiB; ++b) {
        EXPECT_EQ(all[static_cast<std::size_t>(i) * KiB + b], expect[b]);
      }
    }
    return std::make_tuple(fs_reqs, absorbed, flushes);
  };
  auto [reqs_off, abs_off, fl_off] = run_with(0);
  auto [reqs_on, abs_on, fl_on] = run_with(64 * KiB);
  EXPECT_EQ(abs_off, 0u);
  EXPECT_EQ(abs_on, 256u);
  EXPECT_EQ(fl_on, 4u);  // 256 KiB through a 64 KiB buffer
  EXPECT_LT(reqs_on, reqs_off / 10);
}

TEST(WriteBehind, ReadsObserveBufferedWrites) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.wb_buffer_size = MiB;
    File f(c, fs, "wb2", pfs::OpenMode::kCreate, h);
    f.write_at(0, iota_bytes(4096, 9));
    EXPECT_EQ(f.stats().wb_absorbed, 1u);
    std::vector<std::byte> back(4096);
    f.read_at(0, back);  // must flush first
    EXPECT_EQ(back, iota_bytes(4096, 9));
    EXPECT_EQ(f.stats().wb_flushes, 1u);
    f.close();
  });
}

TEST(WriteBehind, OverlappingRewriteStaysCorrect) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.wb_buffer_size = MiB;
    File f(c, fs, "wb3", pfs::OpenMode::kCreate, h);
    f.write_at(0, iota_bytes(1000, 1));
    f.write_at(500, iota_bytes(1000, 2));  // overlaps the pending run
    f.write_at(200, iota_bytes(100, 3));   // overlaps again
    f.close();
    std::vector<std::byte> all(1500);
    fs.store().read_at("wb3", 0, all);
    auto a = iota_bytes(1000, 1);
    auto b = iota_bytes(1000, 2);
    auto d = iota_bytes(100, 3);
    for (std::size_t i = 0; i < 200; ++i) ASSERT_EQ(all[i], a[i]);
    for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(all[200 + i], d[i]);
    for (std::size_t i = 300; i < 500; ++i) ASSERT_EQ(all[i], a[i]);
    for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(all[500 + i], b[i]);
  });
}

TEST(WriteBehind, CollectiveWriteFlushesFirst) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    Hints h;
    h.wb_buffer_size = MiB;
    File f(c, fs, "wb4", pfs::OpenMode::kCreate, h);
    if (c.rank() == 0) f.write_at(0, iota_bytes(100, 7));
    // A collective write elsewhere must not reorder past the buffer.
    f.set_view(1000 + static_cast<std::uint64_t>(c.rank()) * 100);
    f.write_at_all(0, iota_bytes(100, static_cast<unsigned>(c.rank())));
    f.close();
  });
  std::vector<std::byte> head(100);
  fs.store().read_at("wb4", 0, head);
  auto expect = iota_bytes(100, 7);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), expect.begin()));
}

}  // namespace
}  // namespace paramrio::mpi::io
