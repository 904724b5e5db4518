// Property tests for the retry path: backoff shape, exact byte accounting of
// short transfers (the bug class the fault layer exists to catch), and the
// headline property — a retried write stream converges to exactly the bytes
// a fault-free run would have produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "golden_util.hpp"
#include "mpi/io/file.hpp"
#include "obs/profiler.hpp"
#include "pfs/local_fs.hpp"
#include "sim/engine.hpp"
#include "stor/object_store.hpp"

namespace paramrio::fault {
namespace {

sim::Engine::Options eopts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

mpi::RuntimeParams rparams(int n) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  return p;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

std::map<std::string, std::vector<std::byte>> snapshot(
    const stor::ObjectStore& store) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& name : store.list()) {
    std::vector<std::byte> v(store.size(name));
    if (!v.empty()) store.read_at(name, 0, v);
    out.emplace(name, std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Backoff shape
// ---------------------------------------------------------------------------

TEST(Backoff, MonotoneNonDecreasingAndClamped) {
  RetryPolicy p;
  p.max_retries = 16;
  p.backoff_base = 1e-4;
  p.backoff_factor = 2.0;
  p.backoff_max = 1e-2;
  double prev = 0.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    double d = backoff_delay(p, attempt);
    EXPECT_GE(d, prev) << "attempt " << attempt;
    EXPECT_LE(d, p.backoff_max) << "attempt " << attempt;
    prev = d;
  }
  EXPECT_DOUBLE_EQ(backoff_delay(p, 0), 1e-4);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 1), 2e-4);
  EXPECT_DOUBLE_EQ(backoff_delay(p, 30), 1e-2);  // clamped
}

TEST(Backoff, RetryKeyDistinguishesPolicies) {
  RetryPolicy off;
  EXPECT_EQ(retry_key(off), "r0");
  RetryPolicy a;
  a.max_retries = 4;
  RetryPolicy b = a;
  b.verify_short_writes = false;
  EXPECT_NE(retry_key(a), retry_key(off));
  EXPECT_NE(retry_key(a), retry_key(b));
  EXPECT_EQ(retry_key(a), retry_key(RetryPolicy{.max_retries = 4}));
}

// ---------------------------------------------------------------------------
// Short-transfer accounting at the fs layer (regression: write_at used to
// report the *requested* size, so an injected short write left ProcStats,
// observers and the store disagreeing about what landed).
// ---------------------------------------------------------------------------

TEST(FsAccounting, ShortWriteReportsActualBytesEverywhere) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kShortWrite;
  s.short_fraction = 0.5;
  s.max_faults = 1;
  plan.specs.push_back(s);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(100);
    std::uint64_t wrote = fs.write_at(fd, 0, data);
    EXPECT_EQ(wrote, 50u);
    EXPECT_EQ(p.stats().io_bytes_written, 50u);
    EXPECT_EQ(fs.store().size("f"), 50u);
    // The landed prefix is the data's prefix, not garbage.
    std::vector<std::byte> back(50);
    fs.store().read_at("f", 0, back);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
    // The caller resumes; accounting keeps tracking actual bytes.
    wrote += fs.write_at(
        fd, wrote, std::span<const std::byte>(data).subspan(wrote));
    EXPECT_EQ(wrote, 100u);
    EXPECT_EQ(p.stats().io_bytes_written, 100u);
    fs.close(fd);
  });
}

TEST(FsAccounting, ShortReadReportsActualBytes) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kShortRead;
  s.short_fraction = 0.25;
  s.max_faults = 1;
  plan.specs.push_back(s);
  Injector inj(plan);

  sim::Engine::run(eopts(1), [&](sim::Proc& p) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(80);
    fs.write_at(fd, 0, data);
    fs.attach_fault_hook(&inj);
    std::vector<std::byte> out(80);
    std::uint64_t got = fs.read_at(fd, 0, out);
    EXPECT_EQ(got, 20u);
    EXPECT_EQ(p.stats().io_bytes_read, 20u);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 20, data.begin()));
    fs.close(fd);
  });
  fs.attach_fault_hook(nullptr);
}

/// Bounded short writes and transient errors on every op.
FaultPlan fs_retry_plan() {
  FaultPlan plan;
  plan.seed = 5;
  FaultSpec shortw;
  shortw.kind = FaultKind::kShortWrite;
  shortw.probability = 0.4;
  shortw.max_consecutive = 2;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.probability = 0.2;
  eio.max_consecutive = 2;
  plan.specs.push_back(shortw);
  plan.specs.push_back(eio);
  return plan;
}

TEST(FsRetry, ResumesShortsAndAbsorbsTransients) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Injector inj(fs_retry_plan());
  fs.attach_fault_hook(&inj);
  RetryPolicy rp;
  rp.max_retries = 10;
  fs.set_retry(rp);

  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(10000, 3);
    // With fs-level retry every call completes in full...
    EXPECT_EQ(fs.write_at(fd, 0, data), data.size());
    std::vector<std::byte> out(data.size());
    EXPECT_EQ(fs.read_at(fd, 0, out), data.size());
    EXPECT_EQ(out, data);
    fs.close(fd);
  });
  // ...and the faults demonstrably happened.
  EXPECT_GT(inj.counters().injected_total(), 0u);
  EXPECT_GT(fs.fs_retries(), 0u);
}

TEST(FsRetry, ExhaustedBudgetPropagatesTransientError) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;  // every op, forever
  plan.specs.push_back(eio);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);
  RetryPolicy rp;
  rp.max_retries = 3;
  fs.set_retry(rp);

  sim::Engine::run(eopts(1), [&](sim::Proc&) {
    int fd = fs.open("f", pfs::OpenMode::kCreate);
    auto data = pattern(64);
    EXPECT_THROW(fs.write_at(fd, 0, data), TransientIoError);
    fs.close(fd);
  });
  // Budget respected: 1 initial + 3 retries, all faulted.
  EXPECT_EQ(inj.counters().count(FaultKind::kTransientError), 4u);
  EXPECT_EQ(fs.fs_retries(), 3u);
}

// ---------------------------------------------------------------------------
// mpi::io::File retry: interleaved collective + independent writes under a
// bounded transient plan converge to exactly the no-fault bytes.
// ---------------------------------------------------------------------------

struct FileRunResult {
  std::map<std::string, std::vector<std::byte>> files;
  mpi::io::FileStats rank0_stats;
  std::vector<RetryStats> retry;     ///< every rank's File retry stats
  std::vector<double> finish_times;  ///< every rank's final virtual clock
  std::uint64_t fs_retries = 0;
};

FileRunResult run_interleaved_writes(std::uint64_t fault_seed,
                                     bool inject) {
  const int p = 4;
  const std::uint64_t block = 64;
  const std::uint64_t blocks_per_rank = 48;

  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  plan.seed = fault_seed;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.probability = 0.2;
  eio.max_consecutive = 2;
  FaultSpec shortw;
  shortw.kind = FaultKind::kShortWrite;
  shortw.probability = 0.2;
  shortw.max_consecutive = 2;
  FaultSpec shortr;
  shortr.kind = FaultKind::kShortRead;
  shortr.probability = 0.2;
  shortr.max_consecutive = 2;
  plan.specs.push_back(eio);
  plan.specs.push_back(shortw);
  plan.specs.push_back(shortr);
  Injector inj(plan);
  if (inject) fs.attach_fault_hook(&inj);

  FileRunResult result;
  result.retry.resize(p);
  mpi::Runtime rt(rparams(p));
  const sim::Engine::Result run = rt.run([&](mpi::Comm& c) {
    mpi::io::Hints h;
    h.retry.max_retries = 10;
    h.retry.log_delays = true;
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
    // Interleaved cyclic view: rank r owns every p-th `block`-sized slot.
    f.set_view(static_cast<std::uint64_t>(c.rank()) * block,
               mpi::Datatype::vector(blocks_per_rank, block, block * p));
    auto mine = pattern(blocks_per_rank * block,
                        static_cast<unsigned>(c.rank()) + 1);
    f.write_at_all(0, mine);
    // An independent strided rewrite of my second half on top.
    auto mine2 = pattern(blocks_per_rank * block / 2,
                         static_cast<unsigned>(c.rank()) + 100);
    f.write_at(blocks_per_rank * block / 2, mine2);
    // Collective read-back sees my own final bytes despite the faults.
    std::vector<std::byte> back(blocks_per_rank * block);
    f.read_at_all(0, back);
    for (std::uint64_t i = 0; i < back.size() / 2; ++i) {
      EXPECT_EQ(back[i], mine[i]);
    }
    for (std::uint64_t i = 0; i < mine2.size(); ++i) {
      EXPECT_EQ(back[back.size() / 2 + i], mine2[i]);
    }
    if (c.rank() == 0) result.rank0_stats = f.stats();
    f.close();
    result.retry[static_cast<std::size_t>(c.rank())] = f.stats().retry;
  });
  result.files = snapshot(fs.store());
  result.finish_times = run.finish_times;
  result.fs_retries = fs.fs_retries();
  return result;
}

TEST(FileRetry, RetriedWritesConvergeToNoFaultBytes) {
  FileRunResult clean = run_interleaved_writes(0, /*inject=*/false);
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    FileRunResult faulted = run_interleaved_writes(seed, /*inject=*/true);
    EXPECT_EQ(faulted.files, clean.files) << "seed " << seed;
    const RetryStats& r = faulted.rank0_stats.retry;
    EXPECT_GT(r.retries + r.short_writes + r.short_reads, 0u)
        << "seed " << seed << ": the plan injected nothing on rank 0";
  }
  EXPECT_EQ(clean.rank0_stats.retry.retries, 0u);
  EXPECT_EQ(clean.rank0_stats.retry.transient_errors, 0u);
}

TEST(FileRetry, LoggedBackoffIsMonotonePerOp) {
  FileRunResult faulted = run_interleaved_writes(11, /*inject=*/true);
  const std::vector<RetryDelay>& log =
      faulted.rank0_stats.retry.delay_log;
  ASSERT_FALSE(log.empty());
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].op != log[i - 1].op) continue;
    EXPECT_GE(log[i].seconds, log[i - 1].seconds)
        << "op " << log[i].op << " entry " << i;
  }
}

TEST(FileRetry, ShortWriteVerificationIsCounted) {
  FileRunResult faulted = run_interleaved_writes(22, /*inject=*/true);
  const RetryStats& r = faulted.rank0_stats.retry;
  if (r.short_writes > 0) {
    EXPECT_GT(r.write_verifications, 0u);
  }
  EXPECT_GT(r.backoff_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Collective degradation: while the fault layer reports an I/O-server
// outage, write_at_all routes around the aggregators (whose server cannot
// serve them) and still produces the right bytes.
// ---------------------------------------------------------------------------

TEST(FileRetry, CollectiveFallsBackDuringOutage) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec down;
  down.kind = FaultKind::kServerDown;
  down.after_time = 0.0;
  down.until_time = 2e-3;
  plan.specs.push_back(down);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  std::uint64_t fallbacks = 0;
  std::uint64_t retries = 0;
  mpi::Runtime rt(rparams(p));
  rt.run([&](mpi::Comm& c) {
    mpi::io::Hints h;
    h.retry.max_retries = 12;
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate, h);
    const std::uint64_t block = 256;
    f.set_view(static_cast<std::uint64_t>(c.rank()) * block,
               mpi::Datatype::vector(8, block, block * p));
    auto mine = pattern(8 * block, static_cast<unsigned>(c.rank()) + 7);
    // Issued at t=0, inside the outage window: the collective must degrade,
    // and the independent retries ride the backoff past the outage.
    f.write_at_all(0, mine);
    std::vector<std::byte> back(mine.size());
    f.read_at_all(0, back);
    EXPECT_EQ(back, mine);
    if (c.rank() == 0) {
      fallbacks = f.stats().collective_fallbacks;
      retries = f.stats().retry.retries;
    }
    f.close();
  });
  EXPECT_GE(fallbacks, 1u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(inj.counters().count(FaultKind::kServerDown), 0u);
}

// Without retry enabled, the degradation path stays cold and transient
// errors propagate to the caller — opt-in semantics.
TEST(FileRetry, DisabledRetryPropagates) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  FaultPlan plan;
  FaultSpec eio;
  eio.kind = FaultKind::kTransientError;
  eio.max_faults = 1;
  plan.specs.push_back(eio);
  Injector inj(plan);
  fs.attach_fault_hook(&inj);

  mpi::Runtime rt(rparams(1));
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "data", pfs::OpenMode::kCreate);
    auto data = pattern(128);
    EXPECT_THROW(f.write_at(0, data), TransientIoError);
    // The budget-less fault fired once; the next attempt succeeds.
    f.write_at(0, data);
    f.close();
  });
}

// ---------------------------------------------------------------------------
// RetryGolden: the clocks, counters and backoff log of the fs-level plan and
// the File-level plans above, recorded before the retry loops of every layer
// were folded into one.  Exact: clocks compare as IEEE-754 bit patterns.
// Fault draws follow the global op order, which the tie order moves, so the
// runs clear PARAMRIO_SCHED_SEED (schedule independence is the
// differentials' job, identity across commits is this test's).
// ---------------------------------------------------------------------------

using testutil::bits_of;

/// FNV-1a over the (op, seconds bits) pairs of a delay log.
std::uint64_t log_fnv(const std::vector<RetryDelay>& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const RetryDelay& d : log) {
    mix(d.op);
    mix(bits_of(d.seconds));
  }
  return h;
}

struct RankPins {
  std::uint64_t finish_bits = 0;
  std::uint64_t retries = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t write_verifications = 0;
  std::uint64_t backoff_bits = 0;
  std::uint64_t log_len = 0;
  std::uint64_t log_fnv = 0;

  bool operator==(const RankPins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RankPins& p) {
  return os << std::hex << "{0x" << p.finish_bits << "ULL, " << std::dec
            << p.retries << ", " << p.transient_errors << ", "
            << p.short_writes << ", " << p.short_reads << ", "
            << p.write_verifications << ", 0x" << std::hex << p.backoff_bits
            << "ULL, " << std::dec << p.log_len << ", 0x" << std::hex
            << p.log_fnv << "ULL}" << std::dec;
}

RankPins pins_of(double finish, const RetryStats& r) {
  return RankPins{bits_of(finish), r.retries, r.transient_errors,
                  r.short_writes, r.short_reads, r.write_verifications,
                  bits_of(r.backoff_seconds), r.delay_log.size(),
                  log_fnv(r.delay_log)};
}

TEST(RetryGolden, FsPlanClockAndRetriesArePinned) {
  testutil::ScopedNoSchedSeed no_seed;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  Injector inj(fs_retry_plan());
  fs.attach_fault_hook(&inj);
  RetryPolicy rp;
  rp.max_retries = 10;
  fs.set_retry(rp);

  const sim::Engine::Result run =
      sim::Engine::run(eopts(1), [&](sim::Proc&) {
        int fd = fs.open("f", pfs::OpenMode::kCreate);
        auto data = pattern(10000, 3);
        fs.write_at(fd, 0, data);
        std::vector<std::byte> out(data.size());
        fs.read_at(fd, 0, out);
        fs.close(fd);
      });
  EXPECT_EQ(bits_of(run.finish_times[0]), 0x3f71949100144982ULL)
      << std::hex << "0x" << bits_of(run.finish_times[0]);
  EXPECT_EQ(run.stats[0].io_requests, 3u);
  EXPECT_EQ(fs.fs_retries(), 2u);
  EXPECT_EQ(inj.counters().injected_total(), 3u);
}

struct InterleavedGolden {
  std::uint64_t seed = 0;
  std::uint64_t fs_retries = 0;
  RankPins ranks[4];
};

// Per rank: finish clock bits, retries, transient_errors, short_writes,
// short_reads, write_verifications, backoff_seconds bits, delay-log
// length and delay-log FNV.
const InterleavedGolden kInterleavedGolden[] = {
    {11, 0,
     {{0x3fc028971ebd559aULL, 8, 8, 4, 0, 4, 0x3f76872b020c49bbULL, 8,
       0x448256c1ad37646ULL},
      {0x3fc0289acfa1e47aULL, 2, 2, 2, 0, 2, 0x3f50624dd2f1a9fcULL, 2,
       0x4285ef6216b1a0caULL},
      {0x3fc028eb01937928ULL, 5, 5, 4, 0, 4, 0x3f647ae147ae147bULL, 5,
       0xc9a4650d05e3ba9eULL},
      {0x3fc02846eccbc0ecULL, 6, 6, 5, 0, 5, 0x3f6cac083126e979ULL, 6,
       0x58f6973ace8fb095ULL}}},
    {22, 0,
     {{0x3fc3bad53bfd1451ULL, 7, 7, 5, 0, 4, 0x3f70624dd2f1a9fcULL, 7,
       0xf2a735435dac626bULL},
      {0x3fc3baafa743087cULL, 10, 10, 6, 0, 4, 0x3f789374bc6a7efaULL, 10,
       0x5d92533a48f4b10dULL},
      {0x3fc3bb038a192c0aULL, 6, 6, 9, 4, 8, 0x3f747ae147ae147cULL, 6,
       0xd3c259aff7eb8cfaULL},
      {0x3fc3ba815926f0c3ULL, 10, 10, 12, 0, 10, 0x3f789374bc6a7efaULL, 10,
       0x839a7bb0fafefdbaULL}}},
    {33, 0,
     {{0x3fc500dd1ec49652ULL, 8, 8, 6, 0, 6, 0x3f726e978d4fdf3cULL, 8,
       0xb0cc5a79a3e0861fULL},
      {0x3fc500b78a0a8a7dULL, 8, 8, 10, 0, 8, 0x3f726e978d4fdf3cULL, 8,
       0xf8b6f2699c9881c3ULL},
      {0x3fc5010b6ce0ae0bULL, 9, 9, 10, 0, 8, 0x3f926e978d4fdf3cULL, 9,
       0x653f4199c90c14bdULL},
      {0x3fc500893bee72c4ULL, 4, 4, 10, 0, 9, 0x3f60624dd2f1a9fcULL, 4,
       0x184535a57f871d3cULL}}},
};

TEST(RetryGolden, InterleavedWritesClocksStatsAndLogArePinned) {
  testutil::ScopedNoSchedSeed no_seed;
  for (const InterleavedGolden& want : kInterleavedGolden) {
    const FileRunResult got = run_interleaved_writes(want.seed, true);
    EXPECT_EQ(got.fs_retries, want.fs_retries) << "seed " << want.seed;
    ASSERT_EQ(got.finish_times.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(pins_of(got.finish_times[r], got.retry[r]), want.ranks[r])
          << "seed " << want.seed << " rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// RetryLoop: fault::transfer on one proc with a scripted attempt.  Each
// behaviour is exact, virtual-clock bits included.
// ---------------------------------------------------------------------------

RetryPolicy loop_policy(int max_retries) {
  RetryPolicy p;
  p.max_retries = max_retries;
  p.log_delays = true;
  return p;
}

/// Runs `body` on one proc and returns that proc's final clock.
double on_one_proc(const std::function<void()>& body) {
  return sim::Engine::run(eopts(1), [&](sim::Proc&) { body(); })
      .finish_times[0];
}

TEST(RetryLoop, ShortsResumeWithoutSpendingBudget) {
  const RetryPolicy p = loop_policy(0);  // no budget at all
  RetryStats st;
  std::vector<std::uint64_t> offsets;
  std::uint64_t moved = 0;
  const double clock = on_one_proc([&] {
    moved = transfer(p, st, 10, [&](std::uint64_t done) {
      offsets.push_back(done);
      return std::min<std::uint64_t>(3, 10 - done);
    });
  });
  EXPECT_EQ(moved, 10u);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 6, 9}));
  EXPECT_EQ(st.transfers, 1u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.transient_errors, 0u);
  EXPECT_EQ(bits_of(clock), bits_of(0.0));
}

TEST(RetryLoop, TwoTransientsChargeExactlyTwoBackoffs) {
  const RetryPolicy p = loop_policy(5);
  RetryStats st;
  obs::Collector col;
  col.set_detail(true);
  obs::attach(&col);
  int calls = 0;
  double io_time = 0.0;
  const double clock = on_one_proc([&] {
    transfer(p, st, 8, [&](std::uint64_t) -> std::uint64_t {
      if (++calls <= 2) throw TransientIoError("scripted EIO");
      return 8;
    });
    io_time = sim::current_proc().stats().io_time;
  });
  obs::attach(nullptr);
  const double want = backoff_delay(p, 0) + backoff_delay(p, 1);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(bits_of(clock), bits_of(want));
  EXPECT_EQ(bits_of(io_time), bits_of(want));
  EXPECT_EQ(bits_of(st.backoff_seconds), bits_of(want));
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.transient_errors, 2u);
  ASSERT_EQ(col.waits().size(), 2u);
  EXPECT_EQ(col.waits()[0].kind, obs::WaitKind::kRetryBackoff);
  EXPECT_EQ(bits_of(col.waits()[1].t_end), bits_of(want));
}

TEST(RetryLoop, ExhaustionRethrowsTheAttemptsOwnException) {
  const RetryPolicy p = loop_policy(2);
  RetryStats st;
  int calls = 0;
  std::string what;
  on_one_proc([&] {
    try {
      transfer(p, st, 8, [&](std::uint64_t) -> std::uint64_t {
        throw TransientIoError("scripted EIO #" + std::to_string(++calls));
      });
    } catch (const TransientIoError& e) {
      what = e.what();
    }
  });
  EXPECT_EQ(what, "scripted EIO #3");
  EXPECT_EQ(st.transient_errors, 3u);
  EXPECT_EQ(st.retries, 2u);
}

// The budget counts per call and progress never refills it: the second
// failure backs off backoff_delay(p, 1) although bytes moved in between.
TEST(RetryLoop, BudgetCountsPerCall) {
  const RetryPolicy p = loop_policy(3);
  RetryStats st;
  int calls = 0;
  const double clock = on_one_proc([&] {
    transfer(p, st, 8, [&](std::uint64_t done) -> std::uint64_t {
      ++calls;
      if (calls == 1 || calls == 3) throw TransientIoError("scripted EIO");
      return calls == 2 ? 4 : 8 - done;
    });
  });
  ASSERT_EQ(st.delay_log.size(), 2u);
  EXPECT_EQ(bits_of(st.delay_log[0].seconds), bits_of(backoff_delay(p, 0)));
  EXPECT_EQ(bits_of(st.delay_log[1].seconds), bits_of(backoff_delay(p, 1)));
  EXPECT_EQ(bits_of(clock),
            bits_of(backoff_delay(p, 0) + backoff_delay(p, 1)));
}

TEST(RetryLoop, ZeroProgressSpendsBudgetAndEndsInTransientIoError) {
  const RetryPolicy p = loop_policy(2);
  RetryStats st;
  int calls = 0;
  bool threw = false;
  const double clock = on_one_proc([&] {
    try {
      transfer(p, st, 8, [&](std::uint64_t done) -> std::uint64_t {
        ++calls;
        return done == 0 ? 5 : 0;  // one short, then nothing moves
      });
    } catch (const TransientIoError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.transient_errors, 3u);
  EXPECT_EQ(bits_of(clock),
            bits_of(backoff_delay(p, 0) + backoff_delay(p, 1)));
}

TEST(RetryLoop, EmptyTransferMakesExactlyOneAttempt) {
  RetryStats st;
  int calls = 0;
  std::uint64_t moved = 1;
  on_one_proc([&] {
    moved = transfer(loop_policy(3), st, 0, [&](std::uint64_t) {
      ++calls;
      return std::uint64_t{0};
    });
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(st.transfers, 1u);
  EXPECT_EQ(st.transient_errors, 0u);
}

TEST(RetryLoop, LoggedDelaysCarryEachCallsSerial) {
  const RetryPolicy p = loop_policy(3);
  RetryStats st;
  on_one_proc([&] {
    for (int call = 0; call < 3; ++call) {
      bool failed = false;
      transfer(p, st, 4, [&](std::uint64_t) -> std::uint64_t {
        // Calls 0 and 2 fail once each; call 1 succeeds at once.
        if (call != 1 && !failed) {
          failed = true;
          throw TransientIoError("scripted EIO");
        }
        return 4;
      });
    }
  });
  EXPECT_EQ(st.transfers, 3u);
  ASSERT_EQ(st.delay_log.size(), 2u);
  EXPECT_EQ(st.delay_log[0].op, 0u);
  EXPECT_EQ(st.delay_log[1].op, 2u);
  EXPECT_EQ(bits_of(st.delay_log[1].seconds), bits_of(backoff_delay(p, 0)));
}

}  // namespace
}  // namespace paramrio::fault
