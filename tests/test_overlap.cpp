// Overlapped I/O (Hints::overlap): the engine's shadow-clock deferral, the
// nonblocking and split-collective File interfaces, the pipelined two-phase
// windows, and read prefetching.
//
// The headline properties:
//  * content: split ≡ blocking ≡ independent, byte for byte, overlap on or
//    off, under randomized interleaved access patterns — and the checker
//    stays clean;
//  * time: overlap can only help (saved time is accounted, never invented);
//  * faults: a retrying in-flight op converges exactly like a blocking one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "base/rng.hpp"
#include "check/io_checker.hpp"
#include "fault/fault.hpp"
#include "mpi/io/file.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "sim/engine.hpp"

namespace paramrio::mpi::io {
namespace {

sim::Engine::Options eopts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

RuntimeParams rparams(int n) {
  RuntimeParams p;
  p.nprocs = n;
  return p;
}

/// `n` bytes that never repeat with a short period, so a piece that lands
/// at the wrong offset shows: byte i is byte i % 8 of the SplitMix64 draw
/// for word i / 8 of the seed's stream.  A prefix of a longer pattern is the
/// shorter one.
std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  Rng words(seed);
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) w = words.next_u64();
    v[i] = static_cast<std::byte>(w >> (8 * (i % 8)));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Engine deferral primitives.
// ---------------------------------------------------------------------------

TEST(Deferral, ShadowClockRunsAheadWithoutCharging) {
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    p.advance(1.0, sim::TimeCategory::kCpu);
    const double t0 = p.now();
    const double cpu0 = p.stats().cpu_time;
    const double io0 = p.stats().io_time;
    p.begin_deferred();  // lint:allow(deferred-raii) exercises the raw API
    EXPECT_TRUE(p.deferred());
    p.advance(0.5, sim::TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), t0 + 0.5);  // shadow clock visible
    p.clock_at_least(t0 + 2.0, sim::TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), t0 + 2.0);
    const double completion = p.end_deferred();  // lint:allow(deferred-raii)
    EXPECT_DOUBLE_EQ(completion, t0 + 2.0);
    // The real clock and the accounting never moved.
    EXPECT_FALSE(p.deferred());
    EXPECT_DOUBLE_EQ(p.now(), t0);
    EXPECT_DOUBLE_EQ(p.stats().cpu_time, cpu0);
    EXPECT_DOUBLE_EQ(p.stats().io_time, io0);
  });
}

TEST(Deferral, NestedBeginAndStrayEndAreRejected) {
  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    // lint:allow(deferred-raii)
    EXPECT_THROW(p.end_deferred(), LogicError);
    p.begin_deferred();  // lint:allow(deferred-raii)
    // lint:allow(deferred-raii)
    EXPECT_THROW(p.begin_deferred(), LogicError);
    p.end_deferred();  // lint:allow(deferred-raii)
  });
}

// ---------------------------------------------------------------------------
// Nonblocking independent ops.
// ---------------------------------------------------------------------------

TEST(OverlapIndependent, IwriteThenWaitMatchesBlockingContent) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(64 * KiB);
    Request r = f.iwrite_at(100, data);
    EXPECT_TRUE(r.active());
    // Computing while the write is in flight is what earns saved time; an
    // immediate wait would hide nothing.
    sim::current_proc().advance(0.01, sim::TimeCategory::kCpu);
    f.wait(r);
    EXPECT_FALSE(r.active());
    std::vector<std::byte> out(data.size());
    f.read_at(100, out);
    EXPECT_EQ(out, data);
    EXPECT_GT(f.stats().overlap_saved_time, 0.0);  // wait came after issue
    f.close();
  });
}

TEST(OverlapIndependent, OverlapHidesIoBehindCompute) {
  // Same workload twice: write 1 MiB then compute 50 ms.  Synchronously the
  // times add; in flight the compute hides part of the write.
  auto elapsed = [&](bool overlap) {
    pfs::LocalFs fs(pfs::LocalFsParams{});
    Runtime rt(rparams(1));
    double t = 0.0;
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = overlap;
      File f(c, fs, "a", pfs::OpenMode::kCreate, h);
      auto data = pattern(1 * MiB);
      const double t0 = sim::current_proc().now();
      Request r = f.iwrite_at(0, data);
      sim::current_proc().advance(0.05, sim::TimeCategory::kCpu);
      f.wait(r);
      t = sim::current_proc().now() - t0;
      f.close();
    });
    return t;
  };
  const double sync_t = elapsed(false);
  const double async_t = elapsed(true);
  EXPECT_LT(async_t, sync_t);
}

TEST(OverlapIndependent, CloseDrainsUnwaitedRequests) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(256 * KiB);
    // lint:allow(missing-wait) — the point is that close() drains it
    Request r = f.iwrite_at(0, data);  // never waited
    (void)r;
    const double before = sim::current_proc().now();
    f.close();
    // close() charged the in-flight completion.
    EXPECT_GT(sim::current_proc().now(), before);
  });
  auto back = pattern(256 * KiB);
  std::vector<std::byte> out(back.size());
  fs.store().read_at("a", 0, out);
  EXPECT_EQ(out, back);
}

// ---------------------------------------------------------------------------
// Prefetch.
// ---------------------------------------------------------------------------

TEST(Prefetch, HitMissAndInvalidationAccounting) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    auto data = pattern(4096);
    {
      File w(c, fs, "a", pfs::OpenMode::kCreate, h);
      w.write_at(0, data);
      w.close();
    }
    File f(c, fs, "a", pfs::OpenMode::kRead, h);

    // Exact match: hit, correct bytes.
    f.prefetch(0, 100);
    std::vector<std::byte> out(100);
    f.read_at(0, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
    EXPECT_EQ(f.stats().prefetch_hits, 1u);
    EXPECT_EQ(f.stats().prefetch_misses, 0u);

    // Partial overlap: miss, still correct bytes from the file.
    f.prefetch(200, 50);
    out.resize(20);
    f.read_at(210, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 210));
    EXPECT_EQ(f.stats().prefetch_hits, 1u);
    EXPECT_EQ(f.stats().prefetch_misses, 1u);
    f.close();
  });
  // Writer-side invalidation and the drop-at-close path.
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kReadWrite, h);
    f.prefetch(300, 50);
    f.write_at(310, pattern(10, 9));  // intersects the prefetched range
    EXPECT_EQ(f.stats().prefetch_misses, 1u);
    f.prefetch(1000, 64);  // never consumed
    f.close();
    EXPECT_EQ(f.stats().prefetch_misses, 2u);
  });
}

TEST(Prefetch, NoOpWhenOverlapOff) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "a", pfs::OpenMode::kCreate);
    f.write_at(0, pattern(512));
    f.prefetch(0, 512);
    std::vector<std::byte> out(512);
    f.read_at(0, out);
    EXPECT_EQ(f.stats().prefetch_hits, 0u);
    EXPECT_EQ(f.stats().prefetch_misses, 0u);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Split collectives and pipelined two-phase: content equivalence.
// ---------------------------------------------------------------------------

struct SweepOutcome {
  std::vector<std::byte> bytes;
  std::uint64_t split = 0, windows = 0, overlap_windows = 0;
  bool checker_clean = false;
};

/// Write a (n × n) interleaved middle-dim partition with the given method,
/// return the landed bytes plus counters.  method: 0 = blocking collective,
/// 1 = split collective (with comm between begin and end), 2 = independent.
SweepOutcome run_write_sweep(int method, bool overlap, unsigned seed) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 64 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, p, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  check::IoChecker checker;
  fs.attach_observer(&checker);
  RuntimeParams rp = rparams(p);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  Runtime rt(rp);
  std::vector<FileStats> stats(p);
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = overlap;
    h.cb_buffer_size = 8 * KiB;  // force several two-phase windows
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    // Deterministic per-seed row partition, identical across methods.
    std::mt19937 gen(seed);
    std::vector<std::uint64_t> cut(static_cast<std::size_t>(p - 1));
    for (auto& x : cut) x = gen() % n;
    cut.push_back(0);
    cut.push_back(n);
    std::sort(cut.begin(), cut.end());
    const std::uint64_t ys = cut[static_cast<std::size_t>(c.rank())];
    const std::uint64_t yc =
        cut[static_cast<std::size_t>(c.rank()) + 1] - ys;
    std::vector<std::byte> buf(n * yc * n * elem,
                               static_cast<std::byte>(c.rank() + 1));
    if (yc > 0) {
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    } else {
      f.set_view(0);
    }
    switch (method) {
      case 0:
        f.write_at_all(0, buf);
        break;
      case 1:
        f.write_at_all_begin(0, buf);
        // Unrelated comm between begin and end — what split exists for.
        c.allreduce_max(static_cast<std::uint64_t>(c.rank()));
        f.write_at_all_end();
        break;
      default:
        f.write_at(0, buf);
        c.barrier();
        break;
    }
    stats[static_cast<std::size_t>(c.rank())] = f.stats();
    f.close();
  });
  SweepOutcome o;
  o.bytes.resize(fs.store().size("a"));
  fs.store().read_at("a", 0, o.bytes);
  for (const FileStats& s : stats) {
    o.split += s.split_collectives;
    o.windows += s.two_phase_windows;
    o.overlap_windows += s.overlap_windows;
  }
  o.checker_clean = checker.analyze(&fs.store()).clean();
  return o;
}

TEST(SplitCollective, RandomizedSweepSplitEqualsBlockingEqualsIndependent) {
  for (unsigned seed : {1u, 7u, 23u}) {
    SweepOutcome blocking_off = run_write_sweep(0, false, seed);
    SweepOutcome blocking_on = run_write_sweep(0, true, seed);
    SweepOutcome split_on = run_write_sweep(1, true, seed);
    SweepOutcome split_off = run_write_sweep(1, false, seed);
    SweepOutcome indep = run_write_sweep(2, true, seed);
    // Byte-for-byte identity across every method and overlap setting.
    EXPECT_EQ(blocking_off.bytes, blocking_on.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, split_on.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, split_off.bytes) << "seed " << seed;
    EXPECT_EQ(blocking_off.bytes, indep.bytes) << "seed " << seed;
    // The checker audits every variant clean.
    EXPECT_TRUE(blocking_off.checker_clean);
    EXPECT_TRUE(blocking_on.checker_clean);
    EXPECT_TRUE(split_on.checker_clean);
    EXPECT_TRUE(split_off.checker_clean);
    EXPECT_TRUE(indep.checker_clean);
    // Split bookkeeping: one begin/end per rank, windows pipelined only
    // when overlap is on.
    EXPECT_EQ(split_on.split, 4u);
    EXPECT_EQ(split_off.split, 4u);
    EXPECT_EQ(blocking_off.overlap_windows, 0u);
    EXPECT_GT(blocking_on.overlap_windows, 0u);
    EXPECT_EQ(blocking_on.overlap_windows, blocking_on.windows);
  }
}

TEST(SplitCollective, ReadMatchesBlockingAndPrefetchedIndependent) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  const std::uint64_t total = n * n * n * elem;
  auto whole = pattern(total, 3);
  auto run_read = [&](int method, bool overlap) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 64 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    RuntimeParams rp = rparams(p);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    Runtime rt(rp);
    std::vector<std::vector<std::byte>> got(p);
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = overlap;
      h.cb_buffer_size = 8 * KiB;
      if (c.rank() == 0) {
        File w(c, fs, "a", pfs::OpenMode::kCreate, h);
        w.write_at(0, whole);
        w.close();
      } else {
        File w(c, fs, "a", pfs::OpenMode::kCreate, h);
        w.close();
      }
      File f(c, fs, "a", pfs::OpenMode::kRead, h);
      const std::uint64_t yc = n / static_cast<std::uint64_t>(p);
      const std::uint64_t ys = yc * static_cast<std::uint64_t>(c.rank());
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem);
      switch (method) {
        case 0:
          f.read_at_all(0, buf);
          break;
        case 1:
          f.read_at_all_begin(0, buf);
          c.barrier();
          f.read_at_all_end();
          break;
        default:
          f.prefetch(0, buf.size());
          f.read_at(0, buf);
          break;
      }
      got[static_cast<std::size_t>(c.rank())] = std::move(buf);
      f.close();
    });
    return got;
  };
  auto baseline = run_read(0, false);
  for (int method : {0, 1, 2}) {
    auto got = run_read(method, true);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                baseline[static_cast<std::size_t>(r)])
          << "method " << method << " rank " << r;
    }
  }
}

TEST(SplitCollective, ZeroLengthParticipationCompletes) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(2));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(4096, 5);
    if (c.rank() == 0) {
      f.write_at_all_begin(0, data);
    } else {
      f.write_at_all_begin(0, {});  // zero-length: must still complete
    }
    f.write_at_all_end();
    EXPECT_EQ(f.stats().split_collectives, 1u);

    std::vector<std::byte> out(c.rank() == 0 ? 4096 : 0);
    if (c.rank() == 0) {
      f.read_at_all_begin(0, out);
    } else {
      f.read_at_all_begin(0, {});
    }
    f.read_at_all_end();
    if (c.rank() == 0) {
      EXPECT_EQ(out, data);
    }
    f.close();
  });
}

TEST(SplitCollective, SecondBeginWithoutEndIsRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    auto data = pattern(128);
    f.write_at_all_begin(0, data);
    EXPECT_THROW(f.write_at_all_begin(0, data), LogicError);
    EXPECT_THROW(f.write_at_all(0, data), LogicError);
    f.write_at_all_end();
    EXPECT_THROW(f.write_at_all_end(), LogicError);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Hints edge case: cb_buffer_size below the stripe size must not produce
// zero-byte windows in either domain mode.
// ---------------------------------------------------------------------------

TEST(HintsEdge, CbBufferSmallerThanStripeStillMovesEveryByte) {
  const int p = 4;
  const std::uint64_t n = 16, elem = 8;
  for (std::uint64_t cb_align : {Hints::kCbAlignAuto, std::uint64_t{64 * KiB}}) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 64 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    RuntimeParams rp = rparams(p);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    Runtime rt(rp);
    std::vector<FileStats> stats(p);
    rt.run([&](Comm& c) {
      Hints h;
      h.overlap = true;
      h.cb_align = cb_align;
      h.cb_buffer_size = 2 * KiB;  // far below the 64 KiB stripe
      File f(c, fs, "a", pfs::OpenMode::kCreate, h);
      const std::uint64_t yc = n / static_cast<std::uint64_t>(p);
      const std::uint64_t ys = yc * static_cast<std::uint64_t>(c.rank());
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
      std::vector<std::byte> buf(n * yc * n * elem,
                                 static_cast<std::byte>(c.rank() + 1));
      f.write_at_all(0, buf);
      stats[static_cast<std::size_t>(c.rank())] = f.stats();
      f.close();
    });
    std::uint64_t windows = 0, overlapped = 0;
    for (const FileStats& s : stats) {
      windows += s.two_phase_windows;
      overlapped += s.overlap_windows;
    }
    // Every counted window moved bytes (a zero-byte window would be counted
    // but ship nothing — caught by the byte audit below), and every one was
    // pipelined.
    EXPECT_GT(windows, 0u);
    EXPECT_EQ(overlapped, windows);
    std::vector<std::byte> all(n * n * n * elem);
    fs.store().read_at("a", 0, all);
    const std::uint64_t rows_per = n / static_cast<std::uint64_t>(p);
    for (std::uint64_t z = 0; z < n; ++z) {
      for (std::uint64_t y = 0; y < n; ++y) {
        const auto want =
            static_cast<std::byte>(y / rows_per + 1);
        const std::uint64_t row = (z * n + y) * n * elem;
        for (std::uint64_t i = 0; i < n * elem; ++i) {
          ASSERT_EQ(all[row + i], want) << "z=" << z << " y=" << y;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Async spans: an in-flight op's span lasts until its I/O lands.
// ---------------------------------------------------------------------------

TEST(OverlapSpans, AsyncSpansEndWhenTheirIoLands) {
  const int p = 4;
  const std::uint64_t n = 32, elem = 8;
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 16 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, p, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  RuntimeParams rp = rparams(p);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  Runtime rt(rp);
  obs::Collector col;
  obs::attach(&col);
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    h.cb_buffer_size = 8 * KiB;  // several pipelined windows per aggregator
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    const auto r = static_cast<std::uint64_t>(c.rank());
    // An overlapped independent write past the array, waited on.
    const auto data = pattern(32 * KiB, static_cast<unsigned>(r));
    const std::uint64_t own = n * n * n * elem + r * data.size();
    Request req = f.iwrite_at(own, data);
    c.proc().advance(1e-3, sim::TimeCategory::kCpu);
    f.wait(req);
    // A pipelined collective write, then read, of a y-partitioned array.
    const std::uint64_t yc = n / p;
    f.set_view(0,
               Datatype::subarray({n, n, n}, {n, yc, n}, {0, yc * r, 0}, elem));
    std::vector<std::byte> buf(n * yc * n * elem, std::byte{1});
    f.write_at_all(0, buf);
    f.read_at_all(0, buf);
    // A prefetch of the independent write, consumed after some compute.
    f.set_view(0);
    std::vector<std::byte> back(data.size());
    f.prefetch(own, back.size());
    c.proc().advance(1e-3, sim::TimeCategory::kCpu);
    f.read_at(own, back);
    EXPECT_EQ(back, data);
    f.close();
  });
  obs::detach();

  auto moves_bytes = [](const obs::SpanRecord& s) {
    for (const auto& [name, value] : s.counters) {
      if ((name == "bytes" || name == "window_bytes") && value > 0) {
        return true;
      }
    }
    return false;
  };
  auto is_pfs = [](const obs::SpanRecord& s) {
    return s.name.rfind("pfs.", 0) == 0;
  };
  std::map<std::string, int> ops;
  for (const obs::SpanRecord& a : col.spans()) {
    if (!a.async || !moves_bytes(a)) continue;
    EXPECT_GT(a.duration(), 0.0) << a.name << " on rank " << a.rank;
    if (is_pfs(a)) continue;
    ops[a.name] += 1;
    // Every file-system request the op started lands before the op ends.
    for (const obs::SpanRecord& b : col.spans()) {
      if (b.rank != a.rank || !b.async || !is_pfs(b)) continue;
      if (b.t_start < a.t_start || b.t_start >= a.t_end) continue;
      EXPECT_GE(a.t_end, b.t_end)
          << a.name << " on rank " << a.rank << " ends before its " << b.name;
    }
  }
  EXPECT_EQ(ops["mpiio.iwrite"], p);
  EXPECT_EQ(ops["mpiio.prefetch"], p);
  // Several pipelined windows per aggregator in each of the two calls.
  EXPECT_GE(ops["two_phase.io"], 2 * p * 4);
}

// ---------------------------------------------------------------------------
// Faults: a retrying in-flight op converges like a blocking one.
// ---------------------------------------------------------------------------

TEST(OverlapFaults, InFlightTransientErrorsRetryAndConverge) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.kind = fault::FaultKind::kTransientError;
  s.max_faults = 3;  // deterministic: first three attempts fail, then pass
  plan.specs.push_back(s);
  fault::Injector inj(plan);
  fs.attach_fault_hook(&inj);

  Runtime rt(rparams(1));
  std::vector<std::byte> data = pattern(128 * KiB, 11);
  FileStats stats;
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = true;
    h.retry.max_retries = 8;
    h.retry.backoff_base = 1e-4;
    File f(c, fs, "a", pfs::OpenMode::kCreate, h);
    Request r = f.iwrite_at(0, data);
    sim::current_proc().advance(0.01, sim::TimeCategory::kCpu);
    f.wait(r);
    stats = f.stats();
    f.close();
  });
  // Faults fired and were absorbed in flight (backoff on the shadow clock).
  EXPECT_GT(stats.retry.transient_errors, 0u);
  EXPECT_GT(stats.retry.retries, 0u);
  EXPECT_GT(stats.retry.backoff_seconds, 0.0);
  // The landed bytes converged to exactly the fault-free content.
  std::vector<std::byte> out(data.size());
  fs.store().read_at("a", 0, out);
  EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------------
// View-flatten cache.
// ---------------------------------------------------------------------------

TEST(ViewFlattenCache, RepeatedSubarrayViewsHit) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Runtime rt(rparams(1));
  rt.run([&](Comm& c) {
    File f(c, fs, "a", pfs::OpenMode::kCreate);
    const std::uint64_t n = 8, elem = 8;
    const std::uint64_t field = n * n * n * elem;
    auto data = pattern(n * 4 * n * elem, 2);
    // The ENZO shape: the same subarray filetype installed at a different
    // displacement per field — the flattening is computed once.
    for (int fi = 0; fi < 4; ++fi) {
      f.set_view(static_cast<std::uint64_t>(fi) * field,
                 Datatype::subarray({n, n, n}, {n, 4, n}, {0, 4, 0}, elem));
      f.write_at(0, data);
    }
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 3u);
    // Same range read back through the same view: hits again, same bytes.
    for (int fi = 0; fi < 4; ++fi) {
      f.set_view(static_cast<std::uint64_t>(fi) * field,
                 Datatype::subarray({n, n, n}, {n, 4, n}, {0, 4, 0}, elem));
      std::vector<std::byte> out(data.size());
      f.read_at(0, out);
      EXPECT_EQ(out, data);
    }
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 7u);
    // A different range is a clean miss, not a stale reuse.
    std::vector<std::byte> head(n * elem);
    f.read_at(0, head);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
    EXPECT_EQ(f.stats().view_flatten_cache_hits, 7u);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Two-phase golden: every path through the window loop, pinned bit for bit.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = kFnvBasis;
  const auto* c = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= c[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One rank's observable outcome of a collective write, then a collective
/// read, then close, on one File.  Clocks and saved time are IEEE-754 bits.
struct TwoPhasePins {
  std::uint64_t write_clock = 0;
  std::uint64_t read_clock = 0;
  std::uint64_t close_clock = 0;
  std::uint64_t windows = 0;  ///< FileStats::two_phase_windows
  std::uint64_t overlap_windows = 0;
  std::uint64_t aligned = 0;   ///< cb_aligned_windows
  std::uint64_t straddle = 0;  ///< cb_straddle_windows
  std::uint64_t token_saves = 0;
  std::uint64_t peak_window = 0;  ///< cb_peak_window_bytes
  std::uint64_t saved_bits = 0;   ///< overlap_saved_time
  std::uint64_t read_fnv = 0;     ///< the rank's read buffer

  bool operator==(const TwoPhasePins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TwoPhasePins& p) {
  return os << std::hex << "{0x" << p.write_clock << "ULL, 0x"
            << p.read_clock << "ULL, 0x" << p.close_clock << "ULL, "
            << std::dec << p.windows << ", " << p.overlap_windows << ", "
            << p.aligned << ", " << p.straddle << ", " << p.token_saves
            << ", " << p.peak_window << ", " << std::hex << "0x"
            << p.saved_bits << "ULL, 0x" << p.read_fnv << "ULL}"
            << std::dec;
}

constexpr int kTpRanks = 4;

struct TwoPhaseCase {
  bool cyclic;  ///< stripe-cyclic domains, else classic block domains
  bool overlap;
  bool split;  ///< begin/end calls, else blocking collectives
  unsigned seed;  ///< the write's y-partition
  std::uint64_t file_fnv;
  std::array<TwoPhasePins, kTpRanks> ranks;
};

/// 4 ranks on a 4-server StripedFs with 16 KiB stripes and 8 KiB windows:
/// a collective write of a 32^3 x 8 B array under a seeded uneven
/// y-partition, then a collective read under an even y-partition of a
/// 33-plane view whose last z-plane lies past EOF (it reads as zeros).
TwoPhaseCase run_two_phase(bool cyclic, bool overlap, bool split,
                           unsigned seed) {
  const std::uint64_t n = 32, elem = 8;
  net::NetworkParams np;
  pfs::StripedFsParams sp;
  sp.stripe_size = 16 * KiB;
  sp.n_io_nodes = 4;
  net::Network nw(np, kTpRanks, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  RuntimeParams rp = rparams(kTpRanks);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  Runtime rt(rp);
  TwoPhaseCase out{cyclic, overlap, split, seed, 0, {}};
  rt.run([&](Comm& c) {
    Hints h;
    h.overlap = overlap;
    h.cb_buffer_size = 8 * KiB;
    if (cyclic) h.cb_align = Hints::kCbAlignAuto;
    const auto r = static_cast<std::size_t>(c.rank());
    TwoPhasePins& pins = out.ranks[r];
    File f(c, fs, "tp", pfs::OpenMode::kCreate, h);
    std::mt19937 gen(seed);
    std::vector<std::uint64_t> cut(kTpRanks - 1);
    for (auto& x : cut) x = gen() % n;
    cut.push_back(0);
    cut.push_back(n);
    std::sort(cut.begin(), cut.end());
    const std::uint64_t ys = cut[r];
    const std::uint64_t yc = cut[r + 1] - ys;
    // Aperiodic bytes, so a piece landing at the wrong offset shows.
    std::mt19937 bytes(seed * kTpRanks + static_cast<unsigned>(r));
    std::vector<std::byte> data(n * yc * n * elem);
    for (std::byte& b : data) b = static_cast<std::byte>(bytes() & 0xff);
    if (yc > 0) {
      f.set_view(0,
                 Datatype::subarray({n, n, n}, {n, yc, n}, {0, ys, 0}, elem));
    } else {
      f.set_view(0);
    }
    if (split) {
      f.write_at_all_begin(0, data);
      c.proc().advance(1e-3, sim::TimeCategory::kCpu);
      f.write_at_all_end();
    } else {
      f.write_at_all(0, data);
    }
    pins.write_clock = bits_of(c.proc().now());
    const std::uint64_t ryc = n / kTpRanks;
    f.set_view(0, Datatype::subarray({n + 1, n, n}, {n + 1, ryc, n},
                                     {0, ryc * r, 0}, elem));
    std::vector<std::byte> got((n + 1) * ryc * n * elem);
    if (split) {
      f.read_at_all_begin(0, got);
      c.proc().advance(1e-3, sim::TimeCategory::kCpu);
      f.read_at_all_end();
    } else {
      f.read_at_all(0, got);
    }
    pins.read_clock = bits_of(c.proc().now());
    f.close();
    pins.close_clock = bits_of(c.proc().now());
    const FileStats& s = f.stats();
    pins.windows = s.two_phase_windows;
    pins.overlap_windows = s.overlap_windows;
    pins.aligned = s.cb_aligned_windows;
    pins.straddle = s.cb_straddle_windows;
    pins.token_saves = s.cb_token_saves;
    pins.peak_window = s.cb_peak_window_bytes;
    pins.saved_bits = bits_of(s.overlap_saved_time);
    pins.read_fnv = fnv1a(got.data(), got.size());
  });
  std::vector<std::byte> file(fs.store().size("tp"));
  fs.store().read_at("tp", 0, file);
  out.file_fnv = fnv1a(file.data(), file.size());
  return out;
}

void PrintTo(const TwoPhaseCase& k, std::ostream* os) {
  *os << (k.cyclic ? "cyclic" : "block") << (k.overlap ? "_overlap" : "_sync")
      << (k.split ? "_split" : "_blocking") << "_seed" << k.seed;
}

// Recorded before the pipelined-read loop was folded into the one window
// loop: clocks, window counters and bytes of all 16 paths (read/write are
// both in every case) must not move under a refactoring of the engine.
const TwoPhaseCase kTwoPhaseGolden[] = {
    {false, false, false, 1, 0xdb9fbec8762be697ULL,
     {{{0x3fb2b79879d09829ULL, 0x3fd19ba5d502ede1ULL, 0x3fd20062a6685f0cULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x2a4733c64814dd55ULL},
       {0x3fb34c9034cf4deeULL, 0x3fd1bd88c56f43bcULL, 0x3fd2008c97d370d3ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xcd97eed30cfcbff5ULL},
       {0x3fb3e187efce03b3ULL, 0x3fd1df6bb5db9997ULL, 0x3fd20038b4fd4d45ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3fb4767faaccb978ULL, 0x3fd104a0eb393b27ULL, 0x3fd20062a6685f0cULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {false, false, false, 7, 0xf396c4ea740aab5cULL,
     {{{0x3fb2998ce7bdcd3dULL, 0x3fd19422f07e3b26ULL, 0x3fd1f8dfc1e3ac51ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x4bc1bfb844cfba0cULL},
       {0x3fb32e84a2bc8302ULL, 0x3fd1b605e0ea9101ULL, 0x3fd1f909b34ebe18ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xec5a60a4f1d1ed14ULL},
       {0x3fb3c37c5dbb38c7ULL, 0x3fd1d7e8d156e6dcULL, 0x3fd1f8b5d0789a8aULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xfc5df62108b44462ULL},
       {0x3fb4587418b9ee8cULL, 0x3fd0fd1e06b4886cULL, 0x3fd1f8dfc1e3ac51ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x954161283bf54aedULL}}}},
    {false, false, true, 1, 0xdb9fbec8762be697ULL,
     {{{0x3fb2f921b11c5ed1ULL, 0x3fd1bc6a70a8d135ULL, 0x3fd22127420e4260ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x2a4733c64814dd55ULL},
       {0x3fb38e196c1b1496ULL, 0x3fd1de4d61152710ULL, 0x3fd2215133795427ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xcd97eed30cfcbff5ULL},
       {0x3fb423112719ca5bULL, 0x3fd2003051817cebULL, 0x3fd220fd50a33099ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3fb4b808e2188020ULL, 0x3fd1256586df1e7bULL, 0x3fd22127420e4260ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {false, false, true, 7, 0xf396c4ea740aab5cULL,
     {{{0x3fb2db161f0993e5ULL, 0x3fd1b4e78c241e7aULL, 0x3fd219a45d898fa5ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x4bc1bfb844cfba0cULL},
       {0x3fb3700dda0849aaULL, 0x3fd1d6ca7c907455ULL, 0x3fd219ce4ef4a16cULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xec5a60a4f1d1ed14ULL},
       {0x3fb405059506ff6fULL, 0x3fd1f8ad6cfcca30ULL, 0x3fd2197a6c1e7ddeULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0xfc5df62108b44462ULL},
       {0x3fb499fd5005b534ULL, 0x3fd11de2a25a6bc0ULL, 0x3fd219a45d898fa5ULL,
        17, 0, 0, 17, 0, 8192, 0x0ULL, 0x954161283bf54aedULL}}}},
    {false, true, false, 1, 0xdb9fbec8762be697ULL,
     {{{0x3fa9fdd5cae9e556ULL, 0x3fc6ff1d739ffc7bULL, 0x3fc7c897166aded5ULL,
        17, 17, 0, 17, 0, 8192, 0x3facafd781eadf7aULL, 0x2a4733c64814dd55ULL},
       {0x3fab27c540e750e0ULL, 0x3fc742e35478a832ULL, 0x3fc7c8eaf9410263ULL,
        17, 17, 0, 17, 0, 8192, 0x3fa282994ced994eULL, 0xcd97eed30cfcbff5ULL},
       {0x3fac51b4b6e4bc6aULL, 0x3fc786a9355153e9ULL, 0x3fc7c8433394bb47ULL,
        17, 17, 0, 17, 0, 8192, 0x3f90fe047d3d41f0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3fad7ba42ce227f4ULL, 0x3fc6615f23e03d4cULL, 0x3fc7c897166aded5ULL,
        17, 17, 0, 17, 0, 8192, 0x3fb3be573e2a5d1cULL, 0xc15cd880bd0eb8b5ULL}}}},
    {false, true, false, 7, 0xf396c4ea740aab5cULL,
     {{{0x3fa9fc44edd411ccULL, 0x3fc6feb93c5a8798ULL, 0x3fc7c832df2569f2ULL,
        17, 17, 0, 17, 0, 8192, 0x3fac99cde394d6e4ULL, 0x4bc1bfb844cfba0cULL},
       {0x3fac5023d9cee8e0ULL, 0x3fc7427f1d33334fULL, 0x3fc7c886c1fb8d80ULL,
        17, 17, 0, 17, 0, 8192, 0x3fa0b1aacf12bebeULL, 0xec5a60a4f1d1ed14ULL},
       {0x3fab263463d17d56ULL, 0x3fc78644fe0bdf06ULL, 0x3fc7c7defc4f4664ULL,
        17, 17, 0, 17, 0, 8192, 0x3f93377b4fbae0feULL, 0xfc5df62108b44462ULL},
       {0x3fad7a134fcc546aULL, 0x3fc660faec9ac869ULL, 0x3fc7c832df2569f2ULL,
        17, 17, 0, 17, 0, 8192, 0x3fb37a39acf4eb18ULL, 0x954161283bf54aedULL}}}},
    {false, true, true, 1, 0xdb9fbec8762be697ULL,
     {{{0x3fa9fdd5cae9e556ULL, 0x3fc71fe20f45dfcfULL, 0x3fc7e95bb210c229ULL,
        17, 17, 0, 17, 0, 8192, 0x3fad32e9f0826ccaULL, 0x2a4733c64814dd55ULL},
       {0x3fab27c540e750e0ULL, 0x3fc763a7f01e8b86ULL, 0x3fc7e9af94e6e5b7ULL,
        17, 17, 0, 17, 0, 8192, 0x3fa305abbb85269eULL, 0xcd97eed30cfcbff5ULL},
       {0x3fac51b4b6e4bc6aULL, 0x3fc7a76dd0f7373dULL, 0x3fc7e907cf3a9e9bULL,
        17, 17, 0, 17, 0, 8192, 0x3f9204295a6c5c90ULL, 0xe5be3a44dfe58b6dULL},
       {0x3fad7ba42ce227f4ULL, 0x3fc68223bf8620a0ULL, 0x3fc7e95bb210c229ULL,
        17, 17, 0, 17, 0, 8192, 0x3fb3ffe0757623c4ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {false, true, true, 7, 0xf396c4ea740aab5cULL,
     {{{0x3fa9fc44edd411ccULL, 0x3fc71f7dd8006aecULL, 0x3fc7e8f77acb4d46ULL,
        17, 17, 0, 17, 0, 8192, 0x3fad1ce0522c6434ULL, 0x4bc1bfb844cfba0cULL},
       {0x3fac5023d9cee8e0ULL, 0x3fc76343b8d916a3ULL, 0x3fc7e94b5da170d4ULL,
        17, 17, 0, 17, 0, 8192, 0x3fa134bd3daa4c0eULL, 0xec5a60a4f1d1ed14ULL},
       {0x3fab263463d17d56ULL, 0x3fc7a70999b1c25aULL, 0x3fc7e8a397f529b8ULL,
        17, 17, 0, 17, 0, 8192, 0x3f943da02ce9fb9eULL, 0xfc5df62108b44462ULL},
       {0x3fad7a134fcc546aULL, 0x3fc681bf8840abbdULL, 0x3fc7e8f77acb4d46ULL,
        17, 17, 0, 17, 0, 8192, 0x3fb3bbc2e440b1c0ULL, 0x954161283bf54aedULL}}}},
    {true, false, false, 1, 0xdb9fbec8762be697ULL,
     {{{0x3f8df8434829398dULL, 0x3fa05527a4b4aac6ULL, 0x3fa165087bb2e228ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0x2a4733c64814dd55ULL},
       {0x3f8e405eb182e110ULL, 0x3fa058dd751ef449ULL, 0x3fa1659a5547f7b2ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xcd97eed30cfcbff5ULL},
       {0x3f8e887a1adc8893ULL, 0x3fa05c9345893dccULL, 0x3fa16658070b705fULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3f8eba571b0b90ccULL, 0x3fa05d50f74cb679ULL, 0x3fa1644ac9ef697bULL,
        9, 0, 9, 0, 4, 16384, 0x0ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {true, false, false, 7, 0xf396c4ea740aab5cULL,
     {{{0x3f8c97977d7c4942ULL, 0x3f9fd0b03135ad07ULL, 0x3fa0f838ef990de6ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0x4bc1bfb844cfba0cULL},
       {0x3f8cfc9c8fdfce21ULL, 0x3f9fd81bd20a400eULL, 0x3fa0f8cac92e236fULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xec5a60a4f1d1ed14ULL},
       {0x3f8cd3b235e45a22ULL, 0x3f9fdf8772ded315ULL, 0x3fa0f9887af19c1cULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xfc5df62108b44462ULL},
       {0x3f8cfb9748eab8d2ULL, 0x3f9fe102d665c46fULL, 0x3fa0f77b3dd59539ULL,
        9, 0, 9, 0, 4, 16384, 0x0ULL, 0x954161283bf54aedULL}}}},
    {true, false, true, 1, 0xdb9fbec8762be697ULL,
     {{{0x3f9002468143b766ULL, 0x3fa15b4c81e3c565ULL, 0x3fa26b2d58e1fcc7ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0x2a4733c64814dd55ULL},
       {0x3f90265435f08b28ULL, 0x3fa15f02524e0ee8ULL, 0x3fa26bbf32771251ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xcd97eed30cfcbff5ULL},
       {0x3f904a61ea9d5ee9ULL, 0x3fa162b822b8586bULL, 0x3fa26c7ce43a8afeULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3f9063506ab4e306ULL, 0x3fa16375d47bd118ULL, 0x3fa26a6fa71e841aULL,
        9, 0, 9, 0, 4, 16384, 0x0ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {true, false, true, 7, 0xf396c4ea740aab5cULL,
     {{{0x3f8ea3e137da7e82ULL, 0x3fa0ee7cf5c9f128ULL, 0x3fa1fe5dccc8288aULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0x4bc1bfb844cfba0cULL},
       {0x3f8f08e64a3e0360ULL, 0x3fa0f232c6343aabULL, 0x3fa1feefa65d3e14ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xec5a60a4f1d1ed14ULL},
       {0x3f8edffbf0428f62ULL, 0x3fa0f5e8969e842eULL, 0x3fa1ffad5820b6c1ULL,
        8, 0, 8, 0, 4, 16384, 0x0ULL, 0xfc5df62108b44462ULL},
       {0x3f8f07e10348ee12ULL, 0x3fa0f6a64861fcdbULL, 0x3fa1fda01b04afddULL,
        9, 0, 9, 0, 4, 16384, 0x0ULL, 0x954161283bf54aedULL}}}},
    {true, true, false, 1, 0xdb9fbec8762be697ULL,
     {{{0x3f8a7771983a659eULL, 0x3f9dff8f97b8180aULL, 0x3fa00fa8a2da4367ULL,
        8, 8, 8, 0, 4, 16384, 0x3f64cd012519142cULL, 0x2a4733c64814dd55ULL},
       {0x3f8ab422a38aa5d3ULL, 0x3f9e06fb388cab11ULL, 0x3fa0103a7c6f58f1ULL,
        8, 8, 8, 0, 4, 16384, 0x3f6555fd8d89ebd4ULL, 0xcd97eed30cfcbff5ULL},
       {0x3f8afc3e0ce44d56ULL, 0x3f9e0e66d9613e18ULL, 0x3fa010f82e32d19eULL,
        8, 8, 8, 0, 4, 16384, 0x3f6555fd8d89ebd4ULL, 0xe5be3a44dfe58b6dULL},
       {0x3f8b2e1b0d135590ULL, 0x3f9e0fe23ce82f72ULL, 0x3fa00eeaf116cabaULL,
        9, 9, 9, 0, 4, 16384, 0x3f65d3d1cebf4050ULL, 0xc15cd880bd0eb8b5ULL}}}},
    {true, true, false, 7, 0xf396c4ea740aab5cULL,
     {{{0x3f8a6aeaaf8bc94eULL, 0x3f9dcf0dc4b9ade0ULL, 0x3f9feecf72b61ca4ULL,
        8, 8, 8, 0, 4, 16384, 0x3f5eda35c1021324ULL, 0x4bc1bfb844cfba0cULL},
       {0x3f8ac29b0c520f8aULL, 0x3f9dd679658e40e7ULL, 0x3f9feff325e047b8ULL,
        8, 8, 8, 0, 4, 16384, 0x3f600d1363dff93cULL, 0xec5a60a4f1d1ed14ULL},
       {0x3f8abb525105ac12ULL, 0x3f9ddde50662d3eeULL, 0x3f9ff16e89673912ULL,
        8, 8, 8, 0, 4, 16384, 0x3f5eed80f7614ad0ULL, 0xfc5df62108b44462ULL},
       {0x3f8ac195c55cfa3bULL, 0x3f9ddf6069e9c548ULL, 0x3f9fed540f2f2b4aULL,
        9, 9, 9, 0, 4, 16384, 0x3f608ae7a5154d94ULL, 0x954161283bf54aedULL}}}},
    {true, true, true, 1, 0xdb9fbec8762be697ULL,
     {{{0x3f8a7771983a659eULL, 0x3f9f05b474e732aaULL, 0x3fa092bb1171d0b7ULL,
        8, 8, 8, 0, 4, 16384, 0x3f6cfe280e91e928ULL, 0x2a4733c64814dd55ULL},
       {0x3f8ab422a38aa5d3ULL, 0x3f9f0d2015bbc5b1ULL, 0x3fa0934ceb06e641ULL,
        8, 8, 8, 0, 4, 16384, 0x3f6d87247702c0d4ULL, 0xcd97eed30cfcbff5ULL},
       {0x3f8afc3e0ce44d56ULL, 0x3f9f148bb69058b8ULL, 0x3fa0940a9cca5eeeULL,
        8, 8, 8, 0, 4, 16384, 0x3f6d87247702c0d0ULL, 0xe5be3a44dfe58b6dULL},
       {0x3f8b2e1b0d135590ULL, 0x3f9f16071a174a12ULL, 0x3fa091fd5fae580aULL,
        9, 9, 9, 0, 4, 16384, 0x3f6e04f8b838154cULL, 0xc15cd880bd0eb8b5ULL}}}},
    {true, true, true, 7, 0xf396c4ea740aab5cULL,
     {{{0x3f8a6aeaaf8bc94eULL, 0x3f9ed532a1e8c880ULL, 0x3fa07a7a27f29ba2ULL,
        8, 8, 8, 0, 4, 16384, 0x3f679e41c9f9de8eULL, 0x4bc1bfb844cfba0cULL},
       {0x3f8ac29b0c520f8aULL, 0x3f9edc9e42bd5b87ULL, 0x3fa07b0c0187b12cULL,
        8, 8, 8, 0, 4, 16384, 0x3f683e3a4d58ce38ULL, 0xec5a60a4f1d1ed14ULL},
       {0x3f8abb525105ac12ULL, 0x3f9ee409e391ee8eULL, 0x3fa07bc9b34b29d9ULL,
        8, 8, 8, 0, 4, 16384, 0x3f67a7e765297a64ULL, 0xfc5df62108b44462ULL},
       {0x3f8ac195c55cfa3bULL, 0x3f9ee5854718dfe8ULL, 0x3fa079bc762f22f5ULL,
        9, 9, 9, 0, 4, 16384, 0x3f68bc0e8e8e2294ULL, 0x954161283bf54aedULL}}}},
};

class TwoPhaseGolden : public ::testing::TestWithParam<TwoPhaseCase> {};

TEST_P(TwoPhaseGolden, ClocksWindowsAndBytesArePinned) {
  const TwoPhaseCase& want = GetParam();
  const TwoPhaseCase got =
      run_two_phase(want.cyclic, want.overlap, want.split, want.seed);
  std::ostringstream name;
  PrintTo(want, &name);
  EXPECT_EQ(got.file_fnv, want.file_fnv)
      << name.str() << " file 0x" << std::hex << got.file_fnv;
  for (int r = 0; r < kTpRanks; ++r) {
    EXPECT_EQ(got.ranks[static_cast<std::size_t>(r)],
              want.ranks[static_cast<std::size_t>(r)])
        << name.str() << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, TwoPhaseGolden, ::testing::ValuesIn(kTwoPhaseGolden),
    [](const ::testing::TestParamInfo<TwoPhaseCase>& info) {
      std::ostringstream os;
      PrintTo(info.param, &os);
      return os.str();
    });

}  // namespace
}  // namespace paramrio::mpi::io
