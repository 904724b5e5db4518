// Tests for the I/O correctness analyzer (check::IoChecker): every
// diagnostic kind on synthetic traces, clean audits of all four ENZO dump
// backends, and negative tests proving injected corruption is caught.
#include <gtest/gtest.h>

#include <memory>

#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "mpi/io/file.hpp"
#include "obs/registry.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "sim/engine.hpp"

namespace paramrio {
namespace {

using check::CheckOptions;
using check::CheckReport;
using check::IoChecker;
using check::Kind;
using pfs::OpenMode;

sim::Engine::Options opts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

std::vector<std::byte> bytes(std::size_t n) {
  return std::vector<std::byte>(n, std::byte{0xab});
}

// ---------------------------------------------------------------------------
// Diagnostic kinds on live file systems
// ---------------------------------------------------------------------------

TEST(IoChecker, CleanSingleWriterRoundTripHasNoDiagnostics) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, bytes(1000));
    fs.write_at(fd, 1000, bytes(1000));
    std::vector<std::byte> out(2000);
    fs.read_at(fd, 0, out);
    fs.close(fd);
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_TRUE(r.clean()) << r.format();
  EXPECT_EQ(r.errors(), 0u);
  EXPECT_EQ(r.warnings(), 0u);
  EXPECT_EQ(r.data_requests, 3u);
}

TEST(IoChecker, DetectsCrossRankWriteConflict) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  int fd = fs.open("f", OpenMode::kCreate);  // untimed setup
  sim::Engine::run(opts(2), [&](sim::Proc& p) {
    // Both ranks write [500, 1500) — overlap [500, 1500).
    fs.write_at(fd, static_cast<std::uint64_t>(p.rank()) * 500, bytes(1000));
  });
  fs.close(fd);
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kWriteConflict), 1u) << r.format();
  ASSERT_FALSE(r.diagnostics.empty());
  const check::Diagnostic& d = r.diagnostics.front();
  EXPECT_EQ(d.kind, Kind::kWriteConflict);
  EXPECT_EQ(d.offset, 500u);
  EXPECT_EQ(d.length, 500u);
  EXPECT_EQ(d.ranks, (std::vector<int>{0, 1}));
}

TEST(IoChecker, SameRankOverwriteIsNotAConflict) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, bytes(100));
    fs.write_at(fd, 0, bytes(100));  // header rewrite: fine
    fs.close(fd);
  });
  EXPECT_EQ(checker.analyze(&fs.store()).count(Kind::kWriteConflict), 0u);
}

TEST(IoChecker, PhaseBoundaryResetsConflictScope) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  int fd = fs.open("f", OpenMode::kCreate);  // untimed setup
  checker.begin_phase("dump1");
  sim::Engine::run(opts(2), [&](sim::Proc& p) {
    if (p.rank() == 0) fs.write_at(fd, 0, bytes(100));
  });
  checker.begin_phase("dump2");
  sim::Engine::run(opts(2), [&](sim::Proc& p) {
    // Rank 1 overwrites rank 0's range, but in a new phase: no conflict.
    if (p.rank() == 1) fs.write_at(fd, 0, bytes(100));
  });
  fs.close(fd);
  EXPECT_EQ(checker.analyze(&fs.store()).count(Kind::kWriteConflict), 0u);
}

TEST(IoChecker, DetectsHoleInsideDumpFile) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, bytes(4096));
    fs.write_at(fd, 8192, bytes(4096));  // skips [4096, 8192)
    fs.close(fd);
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kHole), 1u) << r.format();
  EXPECT_EQ(r.diagnostics.front().offset, 4096u);
  EXPECT_EQ(r.diagnostics.front().length, 4096u);
}

TEST(IoChecker, DetectsReadBeforeWrite) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 1000, bytes(1000));  // zero-fills [0, 1000)
    std::vector<std::byte> out(500);
    fs.read_at(fd, 250, out);  // reads bytes never written
    fs.close(fd);
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kReadBeforeWrite), 1u) << r.format();
  // The hole [0, 1000) is also flagged.
  EXPECT_EQ(r.count(Kind::kHole), 1u);
}

TEST(IoChecker, SievingWriteDoesNotMaterialiseHoles) {
  // Regression: the data-sieving write path used to zero-fill its
  // read-modify-write buffer past EOF and write back the entire hull,
  // silently materialising the unwritten gap (and the file tail) as zeros —
  // the checker then saw a fully-written file where the application had
  // left a hole.  Post-fix only the covered runs are written, so the
  // genuine gap shows up as the hole it is.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  mpi::RuntimeParams rp;
  rp.nprocs = 1;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    mpi::io::File f(c, fs, "g", OpenMode::kCreate);
    // Two segments, 200 of the 250-byte hull covered: dense enough that
    // sieving batches them into one read-modify-write window.
    f.set_view(0, mpi::Datatype::indexed({{0, 100}, {150, 100}}));
    std::vector<std::byte> data(200, std::byte{0x5a});
    f.write_at(0, data);
    EXPECT_GE(f.stats().sieve_windows, 1u);
    f.close();
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kHole), 1u) << r.format();
  // The covered runs themselves are intact.
  ASSERT_EQ(fs.store().size("g"), 250u);
  std::vector<std::byte> head(100), tail(100);
  fs.store().read_at("g", 0, head);
  fs.store().read_at("g", 150, tail);
  for (auto b : head) EXPECT_EQ(b, std::byte{0x5a});
  for (auto b : tail) EXPECT_EQ(b, std::byte{0x5a});
}

TEST(IoChecker, PreexistingFilesAreNotFlagged) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  // File written before the checker attaches (untimed setup): its contents
  // are unknown, so reads of it must not be read-before-write.
  int fd = fs.open("pre", OpenMode::kCreate);
  fs.write_at(fd, 0, bytes(100));
  fs.close(fd);
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int rd = fs.open("pre", OpenMode::kRead);
    std::vector<std::byte> out(100);
    fs.read_at(rd, 0, out);
    fs.close(rd);
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kReadBeforeWrite), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kHole), 0u);
}

TEST(IoChecker, DetectsFdLeak) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("f", OpenMode::kCreate);
    fs.write_at(fd, 0, bytes(10));
    // never closed
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kFdLeak), 1u) << r.format();
  EXPECT_EQ(r.warnings(), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(IoChecker, DetectsDoubleCloseAndUseAfterCloseFromSyntheticTrace) {
  // The live FileSystem throws on these before the observer fires, so feed
  // the analyzer a hand-built trace (e.g. from an external tool).
  trace::IoTracer t;
  t.record_open(0.0, 0, "f", OpenMode::kCreate, 3);
  t.record(0.1, 0, true, "f", 0, 100, 3);
  t.record_close(0.2, 0, "f", 3);
  t.record_close(0.3, 0, "f", 3);          // double close
  t.record(0.4, 0, false, "f", 0, 50, 3);  // use after close
  // fd 99 has no open event: it predates the trace, so using it is fine and
  // it must not count as a leak either.
  t.record(0.5, 0, true, "g", 0, 10, 99);
  CheckReport r = check::analyze_trace(t.events(), CheckOptions{});
  EXPECT_EQ(r.count(Kind::kDoubleClose), 1u) << r.format();
  EXPECT_EQ(r.count(Kind::kUnknownFd), 1u);
  EXPECT_EQ(r.count(Kind::kFdLeak), 0u);
}

TEST(IoChecker, DetectsWriteThroughReadOnlyDescriptor) {
  trace::IoTracer t;
  t.record_open(0.0, 0, "f", OpenMode::kCreate, 3);
  t.record(0.1, 0, true, "f", 0, 100, 3);
  t.record_close(0.2, 0, "f", 3);
  t.record_open(0.3, 1, "f", OpenMode::kRead, 4);
  t.record(0.4, 1, true, "f", 0, 100, 4);  // write through read-only fd
  t.record_close(0.5, 1, "f", 4);
  CheckReport r = check::analyze_trace(t.events(), CheckOptions{});
  EXPECT_EQ(r.count(Kind::kWriteReadOnly), 1u) << r.format();
}

TEST(IoChecker, ConflictDiagnosticsFollowMaximalRunsOfOneRank) {
  // Rank 1's two writes leave one run [0, 20) in the owner map, so rank 2's
  // overlap is one diagnostic, not one per earlier request.
  trace::IoTracer t;
  t.record(0.0, 1, true, "f", 10, 10);
  t.record(0.1, 1, true, "f", 0, 10);
  t.record(0.2, 2, true, "f", 5, 10);
  CheckReport r = check::analyze_trace(t.events(), CheckOptions{});
  EXPECT_EQ(r.count(Kind::kWriteConflict), 1u) << r.format();
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].offset, 5u);
  EXPECT_EQ(r.diagnostics[0].length, 10u);
  EXPECT_EQ(r.diagnostics[0].ranks, (std::vector<int>{1, 2}));
}

TEST(IoChecker, AlignmentLintsCountStripeViolations) {
  CheckOptions o;
  o.stripe_size = 4096;
  trace::IoTracer t;
  t.record_open(0.0, 0, "f", OpenMode::kCreate, 3);
  t.record(0.1, 0, true, "f", 0, 8192, 3);     // aligned, large: clean
  t.record(0.2, 0, true, "f", 8192, 512, 3);   // small request
  t.record(0.3, 0, true, "f", 8704, 4096, 3);  // unaligned straddle
  t.record_close(0.4, 0, "f", 3);
  CheckReport r = check::analyze_trace(t.events(), o);
  EXPECT_EQ(r.count(Kind::kSmallRequest), 1u) << r.format();
  EXPECT_EQ(r.count(Kind::kUnalignedRequest), 1u);
  EXPECT_EQ(r.lints(), 2u);
  EXPECT_TRUE(r.clean());  // lints are advisory
}

TEST(IoChecker, DiagnosticCapKeepsCountsExact) {
  CheckOptions o;
  o.max_diagnostics_per_kind = 4;
  o.stripe_size = 4096;
  trace::IoTracer t;
  for (int i = 0; i < 32; ++i) {
    t.record(0.1 * i, 0, true, "f", static_cast<std::uint64_t>(i) * 8192, 16);
  }
  CheckReport r = check::analyze_trace(t.events(), o);
  EXPECT_EQ(r.count(Kind::kSmallRequest), 32u);
  EXPECT_EQ(r.diagnostics.size(), 4u);
}

TEST(IoChecker, FormatMentionsVerdictAndKinds) {
  trace::IoTracer t;
  t.record_open(0.0, 0, "f", OpenMode::kCreate, 3);
  t.record(0.1, 0, true, "f", 0, 100, 3);
  t.record_close(0.2, 0, "f", 3);
  CheckOptions o;
  o.label = "unit";
  std::string s = check::analyze_trace(t.events(), o, nullptr).format();
  EXPECT_NE(s.find("unit"), std::string::npos);
  EXPECT_NE(s.find("CLEAN"), std::string::npos);
  EXPECT_NE(s.find("write-conflict"), std::string::npos);
  EXPECT_NE(s.find("hole"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Backend audits: every ENZO dump backend must produce a clean report
// ---------------------------------------------------------------------------

enum class Kind4 { kHdf4, kMpiIo, kHdf5, kPnetcdf };

std::unique_ptr<enzo::IoBackend> make_backend(Kind4 k, pfs::FileSystem& fs) {
  switch (k) {
    case Kind4::kHdf4: return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Kind4::kMpiIo: return std::make_unique<enzo::MpiIoBackend>(fs);
    case Kind4::kHdf5: return std::make_unique<enzo::Hdf5ParallelBackend>(fs);
    case Kind4::kPnetcdf: return std::make_unique<enzo::PnetcdfBackend>(fs);
  }
  throw LogicError("bad backend kind");
}

enzo::SimulationConfig audit_config() {
  enzo::SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.n_clumps = 4;
  c.refine.threshold = 3.0;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

class BackendAudit : public ::testing::TestWithParam<Kind4> {};

TEST_P(BackendAudit, DumpAndRestartAreCleanUnderChecker) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  CheckOptions o;
  // pnetcdf aligns its data region (NcFileConfig::data_alignment); the
  // header/data padding gap is deliberate, not a torn checkpoint.
  o.padding_alignment = 4096;
  IoChecker checker(o);
  fs.attach_observer(&checker);
  mpi::RuntimeParams rp;
  rp.nprocs = p;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(GetParam(), fs);
    enzo::EnzoSimulation sim(c, audit_config());
    sim.initialize_from_universe();
    sim.evolve_cycle();
    if (c.rank() == 0) checker.begin_phase("dump");
    c.barrier();
    backend->write_dump(c, sim.state(), "audit");
    c.barrier();
    if (c.rank() == 0) checker.begin_phase("restart");
    c.barrier();
    enzo::EnzoSimulation sim2(c, audit_config());
    backend->read_restart(c, sim2.state(), "audit");
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_EQ(r.count(Kind::kWriteConflict), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kHole), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kReadBeforeWrite), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kFdLeak), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kDoubleClose), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kWriteReadOnly), 0u) << r.format();
  EXPECT_EQ(r.count(Kind::kUnknownFd), 0u) << r.format();
  EXPECT_TRUE(r.clean()) << r.format();
  EXPECT_GT(r.data_requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendAudit,
                         ::testing::Values(Kind4::kHdf4, Kind4::kMpiIo,
                                           Kind4::kHdf5, Kind4::kPnetcdf));

// MPI-IO dump + restart with `observer` attached to a fresh file system;
// returns the store so a checker can audit the final extents.
std::unique_ptr<pfs::LocalFs> mpiio_round_trip(trace::IoTracer& observer) {
  auto fs = std::make_unique<pfs::LocalFs>(pfs::LocalFsParams{});
  fs->attach_observer(&observer);
  mpi::RuntimeParams rp;
  rp.nprocs = 4;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(*fs);
    enzo::EnzoSimulation sim(c, audit_config());
    sim.initialize_from_universe();
    if (c.rank() == 0) observer.begin_phase("dump");
    c.barrier();
    backend.write_dump(c, sim.state(), "one");
    c.barrier();
    if (c.rank() == 0) observer.begin_phase("restart");
    c.barrier();
    enzo::EnzoSimulation sim2(c, audit_config());
    backend.read_restart(c, sim2.state(), "one");
  });
  return fs;
}

TEST(IoChecker, OneAttachedCheckerGivesTheTraceReportAndTheAudit) {
  IoChecker checker;
  const auto checked_fs = mpiio_round_trip(checker);
  trace::IoTracer tracer;
  mpiio_round_trip(tracer);

  EXPECT_EQ(checker.format_report("mpiio"), tracer.format_report("mpiio"));
  obs::MetricsRegistry from_checker, from_tracer;
  checker.export_counters(from_checker);
  tracer.export_counters(from_tracer);
  EXPECT_EQ(from_checker.to_json(2), from_tracer.to_json(2));
  EXPECT_GT(tracer.analyze().writes.requests, 0u);
  EXPECT_GT(tracer.analyze().reads.requests, 0u);

  const CheckReport r = checker.analyze(&checked_fs->store());
  EXPECT_TRUE(r.clean()) << r.format();
  EXPECT_EQ(r.events_analyzed, checker.events().size());
}

// ---------------------------------------------------------------------------
// Negative tests: injected corruption must be caught
// ---------------------------------------------------------------------------

TEST(BackendAuditNegative, InjectedOverlappingWriteIsDetected) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  mpi::RuntimeParams rp;
  rp.nprocs = p;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(fs);
    enzo::EnzoSimulation sim(c, audit_config());
    sim.initialize_from_universe();
    if (c.rank() == 0) checker.begin_phase("dump");
    c.barrier();
    backend.write_dump(c, sim.state(), "bad");
    c.barrier();
    // Fault injection: ranks 0 and 1 both rewrite the same range of a dump
    // file inside the dump phase — a lost-update race on a real system.
    if (c.rank() < 2) {
      int fd = fs.open("bad.enzo", pfs::OpenMode::kReadWrite);
      fs.write_at(fd, 128, bytes(256));
      fs.close(fd);
    }
  });
  CheckReport r = checker.analyze(&fs.store());
  EXPECT_GE(r.count(Kind::kWriteConflict), 1u) << r.format();
  EXPECT_FALSE(r.clean());
}

TEST(BackendAuditNegative, TruncatedDumpIsDetected) {
  const int p = 4;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  IoChecker checker;
  fs.attach_observer(&checker);
  mpi::RuntimeParams rp;
  rp.nprocs = p;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(fs);
    enzo::EnzoSimulation sim(c, audit_config());
    sim.initialize_from_universe();
    if (c.rank() == 0) checker.begin_phase("dump");
    c.barrier();
    backend.write_dump(c, sim.state(), "trunc");
  });
  // The full trace is clean...
  ASSERT_TRUE(checker.analyze(&fs.store()).clean());

  // ...but a dump whose trailing writes never happened (a rank died mid
  // checkpoint) leaves the file short of its extent.  Model it by dropping
  // the last write to the largest dump file from the trace and re-analyzing
  // against the same store contents.
  std::string victim;
  std::uint64_t best = 0;
  for (const std::string& name : fs.store().list()) {
    if (fs.store().size(name) > best) {
      best = fs.store().size(name);
      victim = name;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::vector<trace::IoEvent> events = checker.events();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->op == trace::IoOp::kWrite && it->path == victim) {
      events.erase(std::next(it).base());
      break;
    }
  }
  CheckReport r = check::analyze_trace(events, checker.options(), &fs.store(),
                                       checker.phases());
  EXPECT_GE(r.count(Kind::kHole), 1u) << r.format();
  EXPECT_FALSE(r.clean());
}

TEST(BackendAuditAlignment, StripedFsAuditCountsSmallRequestsPerBackend) {
  // The Figure-7 pathology: on a striped file system, backends that issue
  // many sub-stripe requests light up the alignment lints.  The audit stays
  // free of errors either way.
  const int p = 2;
  std::map<std::string, std::uint64_t> small_counts;
  for (Kind4 k : {Kind4::kHdf4, Kind4::kMpiIo}) {
    net::NetworkParams np;
    pfs::StripedFsParams sp;
    sp.stripe_size = 256 * KiB;
    sp.n_io_nodes = 4;
    net::Network nw(np, p, sp.n_io_nodes);
    pfs::StripedFs fs(sp, nw);
    CheckOptions o;
    o.stripe_size = sp.stripe_size;
    IoChecker checker(o);
    fs.attach_observer(&checker);
    mpi::RuntimeParams rp;
    rp.nprocs = p;
    mpi::Runtime rt(rp);
    rt.run([&](mpi::Comm& c) {
      auto backend = make_backend(k, fs);
      enzo::EnzoSimulation sim(c, audit_config());
      sim.initialize_from_universe();
      if (c.rank() == 0) checker.begin_phase("dump");
      c.barrier();
      backend->write_dump(c, sim.state(), "stripe");
    });
    CheckReport r = checker.analyze(&fs.store());
    EXPECT_EQ(r.errors(), 0u) << r.format();
    small_counts[k == Kind4::kHdf4 ? "hdf4" : "mpiio"] =
        r.count(Kind::kSmallRequest);
  }
  // Both backends issue some sub-stripe metadata writes; the audit records
  // per-backend counts a bench can compare.
  EXPECT_GT(small_counts.at("hdf4"), 0u);
}

}  // namespace
}  // namespace paramrio
