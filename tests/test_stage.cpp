// Burst-buffer staging tier: the differential, crash, and fault matrices.
//
//   * Differential: the same ENZO workload dumped through a StagedFs
//     (LocalDiskFs staging in front of a StripedFs destination) must end up
//     byte-identical — logical image and drained destination files — to a
//     direct StripedFs dump, for all four backends and schedule seeds
//     {0,1,2}, with clean check:: audits and clean verify:: reports.
//   * Crash consistency: a crash planted before/during/after the drain (on
//     either tier, for sync and async policies) must always leave the
//     series recoverable to exactly its latest committed generation — an
//     interrupted drain costs progress, never a torn restart.
//   * Faults: transient errors and a server outage on the staging tier are
//     absorbed by the stage retry budget and converge to the no-fault
//     bytes; a drain that exhausts its budget surfaces a diagnosed error
//     and retains the staged bytes — no silent data loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "amr/particles_par.hpp"
#include "base/byte_io.hpp"
#include "check/io_checker.hpp"
#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "golden_util.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "platform/machine.hpp"
#include "stage/staged_fs.hpp"
#include "verify/verify.hpp"

namespace paramrio::enzo {
namespace {

using stage::DrainPolicy;
using stage::StagedFs;
using stage::StagedFsParams;

mpi::RuntimeParams rparams(int n, std::uint64_t perturb_seed = 0) {
  mpi::RuntimeParams p;
  p.nprocs = n;
  p.perturb_seed = perturb_seed;
  return p;
}

SimulationConfig workload() {
  SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.n_clumps = 4;
  c.refine.threshold = 3.0;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

enum class Kind { kHdf4, kMpiIo, kHdf5, kPnetcdf };

constexpr Kind kAllKinds[] = {Kind::kHdf4, Kind::kMpiIo, Kind::kHdf5,
                              Kind::kPnetcdf};

const char* to_cstr(Kind k) {
  switch (k) {
    case Kind::kHdf4:
      return "hdf4";
    case Kind::kMpiIo:
      return "mpiio";
    case Kind::kHdf5:
      return "hdf5";
    case Kind::kPnetcdf:
      return "pnetcdf";
  }
  return "?";
}

std::unique_ptr<IoBackend> make_backend(Kind k, pfs::FileSystem& fs,
                                        const mpi::io::Hints& hints) {
  switch (k) {
    case Kind::kHdf4:
      return std::make_unique<Hdf4SerialBackend>(fs);
    case Kind::kMpiIo:
      return std::make_unique<MpiIoBackend>(fs, hints);
    case Kind::kHdf5: {
      hdf5::FileConfig cfg;
      cfg.io_hints = hints;
      return std::make_unique<Hdf5ParallelBackend>(fs, cfg);
    }
    case Kind::kPnetcdf:
      return std::make_unique<PnetcdfBackend>(fs, hints);
  }
  throw LogicError("bad backend kind");
}

void sort_particles(amr::ParticleSet& p) { amr::local_sort_by_id(p); }

void expect_states_equal(const SimulationState& a, const SimulationState& b) {
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.cycle, b.cycle);
  ASSERT_EQ(a.my_fields.size(), b.my_fields.size());
  for (std::size_t f = 0; f < a.my_fields.size(); ++f) {
    EXPECT_EQ(a.my_fields[f], b.my_fields[f]) << "field " << f;
  }
  amr::ParticleSet pa = a.my_particles, pb = b.my_particles;
  sort_particles(pa);
  sort_particles(pb);
  EXPECT_EQ(pa, pb);
}

/// FNV-1a per stored file — the cross-run comparison unit.
std::map<std::string, std::uint64_t> store_checksums(
    const stor::ObjectStore& store) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& name : store.list()) {
    std::vector<std::byte> bytes(store.size(name));
    if (!bytes.empty()) store.read_at(name, 0, bytes);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::byte b : bytes) {
      h ^= static_cast<std::uint64_t>(b);
      h *= 1099511628211ULL;
    }
    sums.emplace(name, h);
  }
  return sums;
}

/// Checksums of the non-empty files only: the destination tier receives a
/// file when its first payload byte drains, so zero-byte creations live in
/// the logical image but never materialise a destination object.
std::map<std::string, std::uint64_t> nonzero_checksums(
    const stor::ObjectStore& store) {
  auto sums = store_checksums(store);
  for (auto it = sums.begin(); it != sums.end();) {
    it = store.size(it->first) == 0 ? sums.erase(it) : std::next(it);
  }
  return sums;
}

constexpr int kProcs = 4;

pfs::StripedFsParams striped_params() {
  pfs::StripedFsParams sp;
  sp.stripe_size = 64 * KiB;
  sp.n_io_nodes = 4;
  return sp;
}

/// The dump+restart body shared by the direct and staged runs: one evolved
/// cycle, dump, fresh-state restart, restart must equal the dumped state.
void dump_restart(Kind kind, pfs::FileSystem& fs,
                  const mpi::io::Hints& hints, check::IoChecker& checker,
                  mpi::Comm& c, StagedFs* staged, DrainPolicy policy) {
  auto backend = make_backend(kind, fs, hints);
  EnzoSimulation sim(c, workload());
  sim.initialize_from_universe();
  sim.evolve_cycle();
  if (c.rank() == 0) checker.begin_phase("dump");
  c.barrier();
  backend->write_dump(c, sim.state(), "dump");
  if (staged != nullptr) {
    c.barrier();
    staged->drain_mine(policy);
    if (policy == DrainPolicy::kAsync) staged->drain_settle();
    c.barrier();
  }

  if (c.rank() == 0) checker.begin_phase("restart");
  c.barrier();
  EnzoSimulation sim2(c, workload());
  backend->read_restart(c, sim2.state(), "dump");
  expect_states_equal(sim.state(), sim2.state());
}

struct DirectOutcome {
  std::map<std::string, std::uint64_t> all;      ///< every file
  std::map<std::string, std::uint64_t> nonzero;  ///< non-empty files only
};

/// Direct run: the workload written straight onto the destination-class
/// StripedFs.  Returns the per-file checksums of its store.
DirectOutcome run_direct(Kind kind, std::uint64_t perturb) {
  net::NetworkParams np;
  pfs::StripedFsParams sp = striped_params();
  net::Network nw(np, kProcs, sp.n_io_nodes);
  pfs::StripedFs fs(sp, nw);
  check::CheckOptions copts;
  copts.padding_alignment = 4096;
  check::IoChecker checker(copts);
  fs.attach_observer(&checker);

  verify::Verifier v;
  {
    verify::Attach attach(v);
    mpi::RuntimeParams rp = rparams(kProcs, perturb);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    mpi::Runtime rt(rp);
    rt.run([&](mpi::Comm& c) {
      dump_restart(kind, fs, {}, checker, c, nullptr, DrainPolicy::kLazy);
    });
  }
  check::CheckReport audit = checker.analyze(&fs.store());
  EXPECT_TRUE(audit.clean()) << to_cstr(kind) << " direct:\n"
                             << audit.format();
  EXPECT_TRUE(v.report().clean()) << to_cstr(kind) << " direct:\n"
                                  << v.report().format();
  return DirectOutcome{store_checksums(fs.store()),
                       nonzero_checksums(fs.store())};
}

struct StagedOutcome {
  std::map<std::string, std::uint64_t> logical;  ///< facade store, all files
  std::map<std::string, std::uint64_t> drained;  ///< destination, non-empty
  std::uint64_t unmapped_read_bytes = 0;
  std::uint64_t staged_live_bytes = 0;
  std::vector<double> finish_times;  ///< every rank's final virtual clock
  std::uint64_t stage_retries = 0;
  std::uint64_t drain_retries = 0;
  std::uint64_t staging_fs_retries = 0;  ///< the staging tier's own loop
  std::uint64_t dest_fs_retries = 0;
};

/// Staged run: same workload through a LocalDiskFs-staged facade over the
/// same destination-class StripedFs, draining under `policy`.
StagedOutcome run_staged(Kind kind, DrainPolicy policy, std::uint64_t perturb,
                         fault::Injector* staging_faults = nullptr,
                         StagedFsParams params = StagedFsParams{}) {
  net::NetworkParams np;
  pfs::StripedFsParams sp = striped_params();
  net::Network nw(np, kProcs, sp.n_io_nodes);
  pfs::StripedFs dest(sp, nw);
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, kProcs);
  if (staging_faults != nullptr) staging.attach_fault_hook(staging_faults);
  StagedFs staged(params, staging, dest);

  check::CheckOptions copts;
  copts.padding_alignment = 4096;
  check::IoChecker checker(copts);
  staged.attach_observer(&checker);

  verify::Verifier v;
  std::vector<double> finish_times;
  {
    verify::Attach attach(v);
    mpi::RuntimeParams rp = rparams(kProcs, perturb);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    mpi::Runtime rt(rp);
    finish_times = rt.run([&](mpi::Comm& c) {
                     dump_restart(kind, staged, {}, checker, c, &staged,
                                  policy);
                   }).finish_times;
  }
  if (policy == DrainPolicy::kLazy) staged.flush_untimed();

  check::CheckReport audit = checker.analyze(&staged.store());
  EXPECT_TRUE(audit.clean()) << to_cstr(kind) << " staged:\n"
                             << audit.format();
  EXPECT_TRUE(v.report().clean()) << to_cstr(kind) << " staged:\n"
                                  << v.report().format();

  StagedOutcome o;
  o.logical = store_checksums(staged.store());
  o.drained = nonzero_checksums(dest.store());
  o.unmapped_read_bytes = staged.unmapped_read_bytes();
  o.staged_live_bytes = staged.staged_live_bytes();
  o.finish_times = std::move(finish_times);
  o.stage_retries = staged.stage_retries();
  o.drain_retries = staged.drain_retries();
  o.staging_fs_retries = staging.fs_retries();
  o.dest_fs_retries = dest.fs_retries();
  return o;
}

void expect_matches_direct(const StagedOutcome& staged,
                           const DirectOutcome& direct,
                           const std::string& label) {
  // The logical image is the full direct file set, byte for byte; the
  // destination holds every non-empty file, byte for byte.
  EXPECT_EQ(staged.logical, direct.all) << label << ": logical image diverged";
  EXPECT_EQ(staged.drained, direct.nonzero)
      << label << ": drained destination diverged";
  EXPECT_EQ(staged.unmapped_read_bytes, 0u)
      << label << ": some reads were served by neither tier";
  EXPECT_EQ(staged.staged_live_bytes, 0u)
      << label << ": drain left staged bytes behind";
}

// ---------------------------------------------------------------------------
// Differential matrix: backends x schedule seeds.
// ---------------------------------------------------------------------------

class StageDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageDifferential, StagedDumpsMatchDirectDumps) {
  const std::uint64_t seed = GetParam();
  for (Kind kind : kAllKinds) {
    const DirectOutcome direct = run_direct(kind, seed);
    const auto staged = run_staged(kind, DrainPolicy::kSync, seed);
    expect_matches_direct(
        staged, direct,
        std::string(to_cstr(kind)) + "/seed" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(SchedSeeds, StageDifferential,
                         ::testing::Values(0ull, 1ull, 2ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Every drain policy converges to the same destination bytes.
TEST(StageDifferential, AllDrainPoliciesConverge) {
  const DirectOutcome direct = run_direct(Kind::kMpiIo, 0);
  const auto sync_run = run_staged(Kind::kMpiIo, DrainPolicy::kSync, 0);
  const auto async_run = run_staged(Kind::kMpiIo, DrainPolicy::kAsync, 0);
  const auto lazy_run = run_staged(Kind::kMpiIo, DrainPolicy::kLazy, 0);
  EXPECT_EQ(sync_run.logical, direct.all);
  EXPECT_EQ(async_run.logical, direct.all);
  EXPECT_EQ(lazy_run.logical, direct.all);
  EXPECT_EQ(async_run.drained, sync_run.drained);
  EXPECT_EQ(lazy_run.drained, sync_run.drained);
  EXPECT_EQ(async_run.staged_live_bytes, 0u);
  EXPECT_EQ(lazy_run.staged_live_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Crash matrix: crashes planted before / during / after the drain, on either
// tier, for sync and async policies.  The invariant: a fresh facade's
// recover() + restore_latest always lands on the latest committed
// generation, with exactly that generation's bytes.
// ---------------------------------------------------------------------------

struct CrashCase {
  DrainPolicy policy = DrainPolicy::kSync;
  bool on_staging = true;  ///< crash the staging tier (else the destination)
  double fraction = 0.5;   ///< where in generation 1's tier-op window
  const char* label = "";
};

class StageCrashMatrix : public ::testing::TestWithParam<CrashCase> {};

TEST_P(StageCrashMatrix, RecoverRestoresLatestCommittedGeneration) {
  const CrashCase cc = GetParam();
  const Kind kind = Kind::kMpiIo;
  const SimulationConfig cfg = workload();

  // Probe run: count each tier's I/O ops at the generation boundaries so
  // the crash lands inside generation 1's window on the chosen tier.
  std::uint64_t tier_ops_g0 = 0;
  std::uint64_t tier_ops_g1 = 0;
  {
    net::NetworkParams np;
    pfs::StripedFsParams sp = striped_params();
    net::Network nw(np, kProcs, sp.n_io_nodes);
    pfs::StripedFs dest(sp, nw);
    pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, kProcs);
    StagedFs staged(StagedFsParams{}, staging, dest);
    fault::Injector probe{fault::FaultPlan{}};  // counts, injects nothing
    (cc.on_staging ? static_cast<pfs::FileSystem&>(staging)
                   : static_cast<pfs::FileSystem&>(dest))
        .attach_fault_hook(&probe);
    mpi::RuntimeParams rp = rparams(kProcs);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    mpi::Runtime rt(rp);
    rt.run([&](mpi::Comm& c) {
      auto backend = make_backend(kind, staged, {});
      CheckpointSeries series(*backend, staged, "ck");
      series.set_staging(staged, cc.policy);
      EnzoSimulation sim(c, cfg);
      sim.initialize_from_universe();
      sim.evolve_cycle();
      series.dump(c, sim.state(), 0);
      if (c.rank() == 0) tier_ops_g0 = probe.counters().io_ops;
      c.barrier();
      sim.evolve_cycle();
      series.dump(c, sim.state(), 1);
      if (cc.policy == DrainPolicy::kAsync) staged.drain_settle();
      c.barrier();
      if (c.rank() == 0) tier_ops_g1 = probe.counters().io_ops;
      c.barrier();
    });
  }
  ASSERT_GT(tier_ops_g1, tier_ops_g0 + 4)
      << cc.label << ": generation-1 window too small to plant a crash in";

  // Crash run: same deterministic op stream, one crash planted at the
  // requested fraction of generation 1's tier window.
  net::NetworkParams np;
  pfs::StripedFsParams sp = striped_params();
  net::Network nw(np, kProcs, sp.n_io_nodes);
  pfs::StripedFs dest(sp, nw);
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, kProcs);
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.first_op =
      tier_ops_g0 + static_cast<std::uint64_t>(
                        cc.fraction *
                        static_cast<double>(tier_ops_g1 - tier_ops_g0));
  crash.max_faults = 1;
  plan.specs.push_back(crash);
  fault::Injector injector(plan);
  (cc.on_staging ? static_cast<pfs::FileSystem&>(staging)
                 : static_cast<pfs::FileSystem&>(dest))
      .attach_fault_hook(&injector);

  std::vector<SimulationState> states[2];
  states[0].resize(kProcs);
  states[1].resize(kProcs);
  bool crashed = false;
  {
    StagedFs staged(StagedFsParams{}, staging, dest);
    mpi::RuntimeParams rp = rparams(kProcs);
    rp.extra_fabric_nodes = sp.n_io_nodes;
    mpi::Runtime rt(rp);
    try {
      rt.run([&](mpi::Comm& c) {
        auto backend = make_backend(kind, staged, {});
        CheckpointSeries series(*backend, staged, "ck");
        series.set_staging(staged, cc.policy);
        EnzoSimulation sim(c, cfg);
        sim.initialize_from_universe();
        sim.evolve_cycle();
        states[0][static_cast<std::size_t>(c.rank())] = sim.state();
        series.dump(c, sim.state(), 0);
        c.barrier();
        sim.evolve_cycle();
        states[1][static_cast<std::size_t>(c.rank())] = sim.state();
        series.dump(c, sim.state(), 1);
        if (cc.policy == DrainPolicy::kAsync) staged.drain_settle();
      });
    } catch (const CrashError&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << cc.label;
  EXPECT_EQ(injector.counters().count(fault::FaultKind::kCrash), 1u);
  injector.set_enabled(false);

  // Recovery: a fresh facade over the surviving tiers.  Whatever the
  // surviving markers say is committed must restore byte-identically — and
  // generation 0 must always have survived (it was fully dumped and, for
  // sync, destination-durable before its marker).
  StagedFs staged2(StagedFsParams{}, staging, dest);
  staged2.recover();
  auto backend = make_backend(kind, staged2, {});
  CheckpointSeries series(*backend, staged2, "ck");
  ASSERT_TRUE(series.committed(0)) << cc.label;
  const auto latest = series.latest_committed(1);
  ASSERT_TRUE(latest.has_value()) << cc.label;

  mpi::RuntimeParams rp = rparams(kProcs);
  rp.extra_fabric_nodes = sp.n_io_nodes;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    auto b = make_backend(kind, staged2, {});
    CheckpointSeries s2(*b, staged2, "ck");
    EnzoSimulation sim(c, cfg);
    const std::uint64_t gen = s2.restore_latest(c, sim.state(), 1);
    EXPECT_EQ(gen, *latest) << cc.label;
    expect_states_equal(
        states[gen][static_cast<std::size_t>(c.rank())], sim.state());
  });
  EXPECT_EQ(staged2.unmapped_read_bytes(), 0u) << cc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Plants, StageCrashMatrix,
    ::testing::Values(
        CrashCase{DrainPolicy::kSync, true, 0.15, "sync_staging_early"},
        CrashCase{DrainPolicy::kSync, true, 0.85, "sync_staging_late"},
        CrashCase{DrainPolicy::kSync, false, 0.5, "sync_dest_mid_drain"},
        CrashCase{DrainPolicy::kAsync, true, 0.4, "async_staging_mid"},
        CrashCase{DrainPolicy::kAsync, false, 0.5, "async_dest_mid_drain"},
        CrashCase{DrainPolicy::kAsync, true, 0.95, "async_staging_post"}),
    [](const auto& info) { return std::string(info.param.label); });

// ---------------------------------------------------------------------------
// Fault matrix: survivable faults on the staging tier, and the negative
// drain-budget contract.
// ---------------------------------------------------------------------------

/// Transient EIO + short transfers everywhere on the staging tier, plus a
/// full server outage window early in the run.
fault::FaultPlan staging_fault_plan() {
  fault::FaultPlan plan;
  plan.seed = 77;
  fault::FaultSpec eio;
  eio.kind = fault::FaultKind::kTransientError;
  eio.probability = 0.03;
  eio.max_consecutive = 2;
  fault::FaultSpec shortw;
  shortw.kind = fault::FaultKind::kShortWrite;
  shortw.probability = 0.03;
  shortw.max_consecutive = 2;
  fault::FaultSpec outage;
  outage.kind = fault::FaultKind::kServerDown;
  outage.path_substr = ".stage/";
  outage.after_time = 0.05;
  outage.until_time = 0.15;
  plan.specs.push_back(eio);
  plan.specs.push_back(shortw);
  plan.specs.push_back(outage);
  return plan;
}

StagedFsParams staging_retry_params() {
  StagedFsParams params;
  params.stage_retry.max_retries = 25;  // budget must outlast the outage
  return params;
}

TEST(StageFaults, TransientAndOutageOnStagingTierConverge) {
  // The stage retry budget must ride the whole plan out and converge to the
  // no-fault bytes.
  const auto clean = run_staged(Kind::kMpiIo, DrainPolicy::kSync, 0);
  fault::Injector injector(staging_fault_plan());
  const auto faulted = run_staged(Kind::kMpiIo, DrainPolicy::kSync, 0,
                                  &injector, staging_retry_params());

  EXPECT_GT(injector.counters().injected_total(), 0u)
      << "plan injected nothing; the run proves nothing";
  EXPECT_EQ(faulted.logical, clean.logical);
  EXPECT_EQ(faulted.drained, clean.drained);
  EXPECT_EQ(faulted.unmapped_read_bytes, 0u);
  EXPECT_EQ(faulted.staged_live_bytes, 0u);
}

// RetryGolden: the staging plan's clocks and retry counters, recorded before
// the retry loops of every layer were folded into one.  Exact: clocks
// compare as IEEE-754 bit patterns.  Fault draws follow the global op order,
// which the tie order moves, so the run clears PARAMRIO_SCHED_SEED.
TEST(RetryGolden, StagingPlanClocksAndRetriesArePinned) {
  testutil::ScopedNoSchedSeed no_seed;
  fault::Injector injector(staging_fault_plan());
  const auto got = run_staged(Kind::kMpiIo, DrainPolicy::kSync, 0, &injector,
                              staging_retry_params());
  const std::uint64_t want_finish[kProcs] = {
      0x3ff0778ed4bb7344ULL, 0x3ff07779dc05ea60ULL, 0x3ff077845860aed2ULL,
      0x3ff077845860aed2ULL};
  ASSERT_EQ(got.finish_times.size(), static_cast<std::size_t>(kProcs));
  for (std::size_t r = 0; r < got.finish_times.size(); ++r) {
    const std::uint64_t bits = testutil::bits_of(got.finish_times[r]);
    EXPECT_EQ(bits, want_finish[r])
        << "rank " << r << std::hex << " 0x" << bits;
  }
  EXPECT_EQ(got.stage_retries, 40u);
  EXPECT_EQ(got.drain_retries, 0u);
  EXPECT_EQ(got.staging_fs_retries, 0u);
  EXPECT_EQ(got.dest_fs_retries, 0u);
  EXPECT_EQ(injector.counters().injected_total(), 43u);
}

TEST(StageFaults, DrainBudgetExhaustionIsDiagnosedNotSilent) {
  net::NetworkParams np;
  pfs::StripedFsParams sp = striped_params();
  net::Network nw(np, 1, sp.n_io_nodes);
  pfs::StripedFs dest(sp, nw);
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, 1);

  // Every destination write fails, forever: the drain budget cannot win.
  fault::FaultPlan plan;
  fault::FaultSpec eio;
  eio.kind = fault::FaultKind::kTransientError;
  eio.match_reads = false;
  plan.specs.push_back(eio);
  fault::Injector injector(plan);
  dest.attach_fault_hook(&injector);

  StagedFsParams params;
  params.drain_retry.max_retries = 2;
  StagedFs staged(params, staging, dest);

  const std::vector<std::byte> payload(256 * KiB, std::byte{0x5a});
  sim::Engine::Options opts;
  opts.nprocs = 1;
  sim::Engine::run(opts, [&](sim::Proc&) {
    int fd = staged.open("data", pfs::OpenMode::kCreate);
    staged.write_at(fd, 0, payload);

    // The drain exhausts its budget: a diagnosed IoError naming the extent
    // and the policy, never a silent drop.
    try {
      staged.drain_mine(DrainPolicy::kSync);
      ADD_FAILURE() << "drain should have exhausted its retry budget";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("stage.drain"), std::string::npos) << what;
      EXPECT_NE(what.find("data"), std::string::npos) << what;
      EXPECT_NE(what.find("retained"), std::string::npos) << what;
    }
    // No data loss: the staged bytes are still indexed and a later drain
    // (destination healthy again) migrates them.
    EXPECT_EQ(staged.staged_live_bytes(), payload.size());
    injector.set_enabled(false);
    staged.drain_mine(DrainPolicy::kSync);
    EXPECT_EQ(staged.staged_live_bytes(), 0u);

    std::vector<std::byte> out(payload.size());
    staged.read_at(fd, 0, out);
    EXPECT_EQ(out, payload);
    staged.close(fd);
  });
  ASSERT_TRUE(dest.store().exists("data"));
  std::vector<std::byte> drained(dest.store().size("data"));
  dest.store().read_at("data", 0, drained);
  EXPECT_EQ(drained, payload);
  EXPECT_GT(staged.drain_retries(), 0u);
}

// ---------------------------------------------------------------------------
// Recovery unit tests: torn tails and tombstones.
// ---------------------------------------------------------------------------

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

struct TierPair {
  net::NetworkParams np;
  pfs::StripedFsParams sp = striped_params();
  net::Network nw{np, 1, sp.n_io_nodes};
  pfs::StripedFs dest{sp, nw};
  pfs::LocalDiskFs staging{pfs::LocalDiskFsParams{}, 1};
};

TEST(StageRecover, TornTailIsDiscardedCommittedRecordsSurvive) {
  TierPair t;
  {
    StagedFs staged(StagedFsParams{}, t.staging, t.dest);
    sim::Engine::Options opts;
    opts.nprocs = 1;
    sim::Engine::run(opts, [&](sim::Proc&) {
      int f = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f, 0, pattern(1000, 1));
      staged.close(f);
      int g = staged.open("g", pfs::OpenMode::kCreate);
      staged.write_at(g, 0, pattern(500, 2));
      staged.close(g);
    });
  }
  // Tear the log's tail: chop into the last record's payload, as a crash
  // mid-append would.
  const std::string seg = ".stage/r0/seg0";
  ASSERT_TRUE(t.staging.store().exists(seg));
  std::vector<std::byte> raw(t.staging.store().size(seg));
  t.staging.store().read_at(seg, 0, raw);
  raw.resize(raw.size() - 100);  // cuts into g's payload
  t.staging.store().create(seg);  // truncate
  t.staging.store().write_at(seg, 0, raw);

  StagedFs staged2(StagedFsParams{}, t.staging, t.dest);
  staged2.recover();
  ASSERT_TRUE(staged2.store().exists("f"));
  std::vector<std::byte> f(staged2.store().size("f"));
  staged2.store().read_at("f", 0, f);
  EXPECT_EQ(f, pattern(1000, 1));
  // g's only record was torn: the file never became visible.
  EXPECT_FALSE(staged2.store().exists("g"));
}

// A record whose lengths run past the end of its segment, or whose logical
// range runs past the largest offset, ends its chain like a torn tail: the
// records before it survive.
TEST(StageRecover, RecordPastItsSegmentOrTheOffsetRangeEndsItsChain) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kOffsetField = 12;   // after three u32s
  constexpr std::uint64_t kPayloadField = 20;  // after the offset
  const std::pair<std::uint64_t, std::uint64_t> plants[] = {
      {kPayloadField, kTop - 15},  // header + path + payload wraps to 13
      {kOffsetField, kTop - 99},   // offset + payload length overflows
  };
  for (const auto& [field, value] : plants) {
    TierPair t;
    {
      StagedFs staged(StagedFsParams{}, t.staging, t.dest);
      sim::Engine::Options opts;
      opts.nprocs = 1;
      sim::Engine::run(opts, [&](sim::Proc&) {
        int f = staged.open("f", pfs::OpenMode::kCreate);
        staged.write_at(f, 0, pattern(1000, 1));
        staged.close(f);
        int g = staged.open("g", pfs::OpenMode::kCreate);
        staged.write_at(g, 0, pattern(500, 2));
        staged.close(g);
      });
    }
    // Plant the value in the segment's last record, g's data.
    const std::string seg = ".stage/r0/seg0";
    std::vector<std::byte> raw(t.staging.store().size(seg));
    t.staging.store().read_at(seg, 0, raw);
    std::uint64_t last = 0;
    for (std::uint64_t pos = 0; pos < raw.size();) {
      ByteReader r(std::span<const std::byte>(raw).subspan(pos));
      r.skip(8);  // magic, kind
      const std::uint32_t path_len = r.u32();
      r.skip(8);  // offset
      last = pos;
      pos += 28 + path_len + r.u64();
    }
    ByteWriter w;
    w.u64(value);
    const std::vector<std::byte> bytes = w.take();
    std::copy(bytes.begin(), bytes.end(),
              raw.begin() + static_cast<std::ptrdiff_t>(last + field));
    t.staging.store().write_at(seg, 0, raw);

    StagedFs staged2(StagedFsParams{}, t.staging, t.dest);
    ASSERT_NO_THROW(staged2.recover()) << "field " << field;
    ASSERT_TRUE(staged2.store().exists("f"));
    std::vector<std::byte> f(staged2.store().size("f"));
    staged2.store().read_at("f", 0, f);
    EXPECT_EQ(f, pattern(1000, 1));
    EXPECT_FALSE(staged2.store().exists("g")) << "field " << field;
  }
}

TEST(StageRecover, RemoveTombstoneStopsResurrection) {
  TierPair t;
  {
    StagedFs staged(StagedFsParams{}, t.staging, t.dest);
    sim::Engine::Options opts;
    opts.nprocs = 1;
    sim::Engine::run(opts, [&](sim::Proc&) {
      int f = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f, 0, pattern(2000, 1));  // old generation, longer
      staged.close(f);
      staged.remove("f");
      int f2 = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f2, 0, pattern(500, 2));  // new generation, shorter
      staged.close(f2);
    });
  }
  StagedFs staged2(StagedFsParams{}, t.staging, t.dest);
  staged2.recover();
  ASSERT_TRUE(staged2.store().exists("f"));
  // Without the tombstone the old 2000-byte image would leak through.
  EXPECT_EQ(staged2.store().size("f"), 500u);
  std::vector<std::byte> f(500);
  staged2.store().read_at("f", 0, f);
  EXPECT_EQ(f, pattern(500, 2));
}

TEST(StageRecover, TruncateTombstoneDropsTheOldImage) {
  TierPair t;
  {
    StagedFs staged(StagedFsParams{}, t.staging, t.dest);
    sim::Engine::Options opts;
    opts.nprocs = 1;
    sim::Engine::run(opts, [&](sim::Proc&) {
      int f = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f, 0, pattern(2000, 1));
      staged.close(f);
      int f2 = staged.open("f", pfs::OpenMode::kCreate);  // truncates
      staged.write_at(f2, 0, pattern(100, 2));
      staged.close(f2);
    });
  }
  StagedFs staged2(StagedFsParams{}, t.staging, t.dest);
  staged2.recover();
  ASSERT_TRUE(staged2.store().exists("f"));
  EXPECT_EQ(staged2.store().size("f"), 100u);
}

TEST(StageRecover, DrainedBytesRecoverFromTheDestination) {
  TierPair t;
  {
    StagedFs staged(StagedFsParams{}, t.staging, t.dest);
    sim::Engine::Options opts;
    opts.nprocs = 1;
    sim::Engine::run(opts, [&](sim::Proc&) {
      int f = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f, 0, pattern(4096, 3));
      staged.drain_mine(DrainPolicy::kSync);
      staged.close(f);
    });
    staged.flush_untimed();  // removes the (empty) segment files too
  }
  ASSERT_TRUE(t.staging.store().list().empty())
      << "flush should leave no segment files behind";
  StagedFs staged2(StagedFsParams{}, t.staging, t.dest);
  staged2.recover();
  ASSERT_TRUE(staged2.store().exists("f"));
  std::vector<std::byte> f(4096);
  staged2.store().read_at("f", 0, f);
  EXPECT_EQ(f, pattern(4096, 3));
}

TEST(StageSegments, SmallSegmentsRollAndGcAfterDrain) {
  TierPair t;
  StagedFsParams params;
  params.segment_bytes = 4 * KiB;  // force frequent rolls
  StagedFs staged(params, t.staging, t.dest);
  sim::Engine::Options opts;
  opts.nprocs = 1;
  sim::Engine::run(opts, [&](sim::Proc&) {
    int f = staged.open("f", pfs::OpenMode::kCreate);
    for (int i = 0; i < 16; ++i) {
      staged.write_at(f, static_cast<std::uint64_t>(i) * 2048,
                      pattern(2048, static_cast<unsigned>(i)));
    }
    EXPECT_GT(staged.segments_created(), 4u);
    staged.drain_mine(DrainPolicy::kSync);
    EXPECT_EQ(staged.staged_live_bytes(), 0u);
    // Sealed segments are garbage-collected once fully drained; only the
    // rank's current segment may remain.
    EXPECT_GE(staged.segments_removed(), staged.segments_created() - 1);
    std::vector<std::byte> out(16 * 2048);
    staged.read_at(f, 0, out);  // all served from the destination now
    staged.close(f);
  });
  EXPECT_EQ(staged.unmapped_read_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Observability: an async drain's settle stall is blamed as "stage.drain".
// ---------------------------------------------------------------------------

TEST(StageBlame, SettleWaitIsBlamedAsStageDrain) {
  EXPECT_STREQ(obs::to_string(obs::BlameCategory::kStageDrain), "stage.drain");
  EXPECT_STREQ(obs::to_string(obs::WaitKind::kDrainWait), "drain_wait");

  TierPair t;
  StagedFs staged(StagedFsParams{}, t.staging, t.dest);
  obs::Collector col;
  col.set_detail(true);
  obs::attach(&col);
  sim::Engine::Options opts;
  opts.nprocs = 1;
  sim::Engine::run(opts, [&](sim::Proc&) {
    OBS_SPAN("dump", sim::TimeCategory::kIo);
    {
      OBS_SPAN("write", sim::TimeCategory::kIo);
      int f = staged.open("f", pfs::OpenMode::kCreate);
      staged.write_at(f, 0, pattern(512 * KiB));
      staged.drain_mine(DrainPolicy::kAsync);
      staged.close(f);
    }
    {
      // Settling immediately means the whole drain is exposed as a stall.
      OBS_SPAN("settle", sim::TimeCategory::kIo);
      staged.drain_settle();
    }
  });
  obs::detach();

  const obs::BlameReport r = obs::build_blame(col, "dump");
  ASSERT_EQ(r.nranks, 1);
  EXPECT_GT(
      r.blame[static_cast<std::size_t>(obs::BlameCategory::kStageDrain)], 0.0)
      << obs::blame_text(r);
}

// The staged write path must not depend on the destination geometry: the
// same workload staged over 1-stripe and 16-stripe destinations takes the
// same (virtual) dump time.
TEST(StageLatency, DumpTimeIndependentOfDestinationStripes) {
  auto dump_time = [&](int n_io_nodes) {
    net::NetworkParams np;
    pfs::StripedFsParams sp = striped_params();
    sp.n_io_nodes = n_io_nodes;
    net::Network nw(np, 1, sp.n_io_nodes);
    pfs::StripedFs dest(sp, nw);
    pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, 1);
    StagedFs staged(StagedFsParams{}, staging, dest);
    double t = 0.0;
    sim::Engine::Options opts;
    opts.nprocs = 1;
    sim::Engine::run(opts, [&](sim::Proc& proc) {
      int f = staged.open("f", pfs::OpenMode::kCreate);
      const double t0 = proc.now();
      staged.write_at(f, 0, pattern(MiB));
      t = proc.now() - t0;
      staged.drain_mine(DrainPolicy::kSync);
      staged.close(f);
    });
    return t;
  };
  EXPECT_DOUBLE_EQ(dump_time(1), dump_time(16));
}

// An async drain books the fabric and the I/O servers ahead of ranks that
// have not run yet (it executes on the shadow clock).  Drain traffic is the
// background class, so the closing barrier's messages — which share the
// NICs and the 12.5 MB/s backplane with the drain, as in the ledger's
// pipeline — must end at exactly the clocks of a run without the drain;
// the drain's own time stays chargeable by a later drain_settle(), and the
// destination bytes equal a direct run's.
TEST(StageLatency, AsyncDrainDoesNotDelayForegroundMessages) {
  constexpr int P = 8;
  constexpr std::uint64_t kBlock = 256 * KiB;
  struct Outcome {
    std::vector<double> barrier_end = std::vector<double>(P, 0.0);
    std::vector<double> drain_start = std::vector<double>(P, 0.0);
    std::vector<double> settled = std::vector<double>(P, 0.0);
    std::map<std::string, std::uint64_t> dest;
  };
  enum class Mode { kDirect, kStagedNoDrain, kStagedAsyncDrain };
  const auto run = [&](Mode mode) {
    platform::Testbed tb(platform::chiba_pvfs_ethernet(), P);
    pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, P);
    StagedFs staged(StagedFsParams{}, staging, tb.fs());
    pfs::FileSystem& fs = mode == Mode::kDirect
                              ? tb.fs()
                              : static_cast<pfs::FileSystem&>(staged);
    Outcome out;
    tb.runtime().run([&](mpi::Comm& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      const int fd = fs.open("ckpt." + std::to_string(c.rank()),
                             pfs::OpenMode::kCreate);
      fs.write_at(fd, 0, pattern(kBlock, static_cast<unsigned>(c.rank())));
      fs.close(fd);
      out.drain_start[r] = c.proc().now();
      if (mode == Mode::kStagedAsyncDrain) {
        staged.drain_mine(DrainPolicy::kAsync);
      }
      c.barrier();
      out.barrier_end[r] = c.proc().now();
      staged.drain_settle();
      out.settled[r] = c.proc().now();
    });
    if (mode == Mode::kStagedNoDrain) staged.flush_untimed();
    out.dest = nonzero_checksums(tb.fs().store());
    return out;
  };

  const Outcome direct = run(Mode::kDirect);
  const Outcome quiet = run(Mode::kStagedNoDrain);
  const Outcome drained = run(Mode::kStagedAsyncDrain);
  for (int r = 0; r < P; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(drained.barrier_end[i], quiet.barrier_end[i]) << "rank " << r;
  }
  // The drain still costs its wire time: 8 x 256 KiB share the 12.5 MB/s
  // backplane after the earliest drain starts, and settling charges it.
  const double first_start = *std::min_element(drained.drain_start.begin(),
                                               drained.drain_start.end());
  const double last_settle =
      *std::max_element(drained.settled.begin(), drained.settled.end());
  const double backplane =
      platform::chiba_pvfs_ethernet().net.backplane_bandwidth;
  const double wire_floor = static_cast<double>(P * kBlock) / backplane;
  EXPECT_GE(last_settle, first_start + wire_floor);
  EXPECT_GT(last_settle, drained.barrier_end[0]);
  EXPECT_EQ(quiet.settled, quiet.barrier_end);  // nothing in flight to settle
  // Same bytes at the destination as a direct run.
  ASSERT_EQ(direct.dest.size(), static_cast<std::size_t>(P));
  EXPECT_EQ(drained.dest, direct.dest);
  EXPECT_EQ(quiet.dest, direct.dest);
}

}  // namespace
}  // namespace paramrio::enzo
