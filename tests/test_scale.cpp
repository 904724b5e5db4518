// Rank-scalability and scheduler acceptance tests (docs/SCALING.md):
//
//  * differential: at every schedule perturbation seed an ENZO run is
//    exactly reproducible — dumped files, integer counters, virtual clocks —
//    and its files and counters equal the seed-0 run's, across all four I/O
//    backends;
//  * scale smoke: one process simulates a 4096-rank ENZO dump + restart on
//    the striped file system inside a bounded peak RSS;
//  * multi-job tenancy: jobs sharing one file system contend under
//    weighted fair share, while a job running alone stays bit-identical to
//    the single-tenant code path.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "enzo/backends.hpp"
#include "enzo/simulation.hpp"
#include "harness.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "pfs/local_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "platform/machine.hpp"
#include "stor/disk.hpp"

namespace paramrio {
namespace {

using bench::Backend;
using bench::RunSpec;

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

/// Peak resident set (VmHWM) of this process in KiB; each gtest test runs
/// in its own process under ctest, so the number belongs to this test alone.
std::uint64_t peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

enzo::SimulationConfig tiny_config() {
  enzo::SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.n_clumps = 4;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

/// One full ENZO dump + restart on a LocalFs with everything observable
/// recorded: per-file checksums, per-rank virtual clocks, and the integer
/// counters of every rank's ProcStats.
struct Fingerprint {
  std::map<std::string, std::uint64_t> files;
  std::vector<double> finish_times;
  std::vector<std::uint64_t> counters;

  bool operator==(const Fingerprint& o) const {
    return files == o.files && finish_times == o.finish_times &&
           counters == o.counters;
  }
};

std::unique_ptr<enzo::IoBackend> make_backend(Backend kind,
                                              pfs::FileSystem& fs) {
  mpi::io::Hints hints;
  switch (kind) {
    case Backend::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Backend::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs, hints);
    case Backend::kHdf5: {
      hdf5::FileConfig cfg;
      cfg.io_hints = hints;
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs, cfg);
    }
    case Backend::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs, hints);
  }
  throw LogicError("bad backend kind");
}

Fingerprint run_enzo_fingerprint(Backend kind, std::uint64_t perturb) {
  const int p = 8;
  pfs::LocalFs fs(pfs::LocalFsParams{});
  mpi::RuntimeParams rp;
  rp.nprocs = p;
  rp.perturb_seed = perturb;
  mpi::Runtime rt(rp);
  const enzo::SimulationConfig cfg = tiny_config();
  auto res = rt.run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, fs);
    enzo::EnzoSimulation sim(c, cfg);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    backend->write_dump(c, sim.state(), "dump");
    enzo::EnzoSimulation sim2(c, cfg);
    backend->read_restart(c, sim2.state(), "dump");
  });
  Fingerprint fp;
  fp.files = store_checksums(fs.store());
  fp.finish_times = res.finish_times;
  for (const sim::ProcStats& s : res.stats) {
    fp.counters.insert(fp.counters.end(),
                       {s.bytes_sent, s.bytes_received, s.messages_sent,
                        s.io_bytes_read, s.io_bytes_written, s.io_requests});
  }
  fp.counters.push_back(fs.cache_hits());
  fp.counters.push_back(fs.fs_retries());
  return fp;
}

constexpr Backend kAllBackends[] = {Backend::kHdf4, Backend::kMpiIo,
                                    Backend::kHdf5, Backend::kPnetcdf};

class SchedulerDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

// Schedule independence: at each seed a run reproduces exactly, and its
// files and integer counters equal the seed-0 run's, for every I/O backend.
// Finish times stay out of the cross-seed check: reordering tied events
// legitimately moves them under the HDF5 and PnetCDF backends.
TEST_P(SchedulerDifferential, RerunsAreIdenticalAndFilesAreSeedInvariant) {
  const std::uint64_t perturb = GetParam();
  for (Backend kind : kAllBackends) {
    const std::string label =
        bench::to_string(kind) + " perturb=" + std::to_string(perturb);
    const Fingerprint run = run_enzo_fingerprint(kind, perturb);
    EXPECT_FALSE(run.files.empty());
    EXPECT_TRUE(run == run_enzo_fingerprint(kind, perturb))
        << label << ": two runs at one seed diverged";
    if (perturb == 0) continue;
    const Fingerprint base = run_enzo_fingerprint(kind, 0);
    EXPECT_EQ(run.files, base.files) << label << ": files moved with the seed";
    EXPECT_EQ(run.counters, base.counters)
        << label << ": counters moved with the seed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(0ull, 1ull, 2ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A perturbed schedule is a genuinely different interleaving (the engine
// draws different tie-breaks), yet it must still converge to the same files.
TEST(SchedulerDifferential, PerturbationChangesScheduleNotBytes) {
  auto a = run_enzo_fingerprint(Backend::kMpiIo, 0);
  auto b = run_enzo_fingerprint(Backend::kMpiIo, 7);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.finish_times, b.finish_times);
}

// ---------------------------------------------------------------------------
// Scale smoke: 4096 ranks in one process, bounded memory.
// ---------------------------------------------------------------------------

TEST(ScaleSmoke, FourKRankDumpRestartOnStripedFsBoundedMemory) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan adds about 2 MiB of RSS per rank, so 4096 ranks "
                  "overrun the 3 GiB budget several times over";
#endif
  const int p = 4096;
  RunSpec spec;
  spec.machine = platform::chiba_pvfs_ethernet();
  spec.config = tiny_config();
  spec.config.root_dims = {32, 32, 32};
  spec.config.particles_per_cell = 0.0;
  spec.nprocs = p;
  // The serial-HDF4 path is the period-accurate choice at extreme rank
  // counts: gatherv is O(P) messages where the pairwise alltoallv of the
  // parallel backends is O(P^2).
  spec.backend = Backend::kHdf4;
  spec.evolve_cycles = 0;

  bench::IoResult r = bench::run_enzo_io(spec);
  EXPECT_GT(r.fs_bytes_written, 0u);
  EXPECT_GT(r.fs_bytes_read, 0u);
  EXPECT_GT(r.write_time, 0.0);
  EXPECT_GT(r.read_time, 0.0);

  // Bounded memory: 4096 ranks must fit comfortably in one process.  Fiber
  // stacks are lazily-committed mmaps, so the bound holds with margin.
  const std::uint64_t peak_kib = peak_rss_kib();
  ASSERT_GT(peak_kib, 0u);
  EXPECT_LT(peak_kib, 3u * 1024 * 1024)
      << "peak RSS " << peak_kib << " KiB exceeds the 3 GiB budget";
}

// ---------------------------------------------------------------------------
// Multi-job tenancy.
// ---------------------------------------------------------------------------

/// Shared-storage fixture: a StripedFs on its own storage fabric sized for
/// `total_ranks` global clients, so any mix of jobs can reach it.
struct SharedStorage {
  net::Network net;
  pfs::StripedFs fs;
  explicit SharedStorage(int total_ranks)
      : net(net::NetworkParams{}, total_ranks,
            pfs::StripedFsParams{}.n_io_nodes),
        fs(pfs::StripedFsParams{}, net) {}
};

/// The per-job workload: every rank writes then reads back `chunks` private
/// 512 KiB blocks of a job-private file.  Each request spans all 8 default
/// stripe servers, so concurrent jobs necessarily meet at every I/O node —
/// a 64 KiB (single-stripe) stream would rotate through the servers in
/// lockstep and could dodge a contender forever.
void io_workload(mpi::Comm& c, pfs::FileSystem& fs, const std::string& file,
                 int chunks) {
  constexpr std::uint64_t kChunk = 512 * KiB;
  std::vector<std::byte> buf(kChunk, std::byte{0x5A});
  int fd = fs.open(file + "." + std::to_string(c.rank()),
                   pfs::OpenMode::kCreate);
  for (int i = 0; i < chunks; ++i) {
    fs.write_at(fd, static_cast<std::uint64_t>(i) * kChunk, buf);
  }
  for (int i = 0; i < chunks; ++i) {
    fs.read_at(fd, static_cast<std::uint64_t>(i) * kChunk, buf);
  }
  fs.close(fd);
  c.barrier();
}

mpi::RuntimeParams job_params(int n) {
  mpi::RuntimeParams rp;
  rp.nprocs = n;
  return rp;
}

TEST(MultiJob, LoneJobIsBitIdenticalToSingleTenantRun) {
  auto single = [&] {
    SharedStorage st(4);
    mpi::Runtime rt(job_params(4));
    return rt.run([&](mpi::Comm& c) { io_workload(c, st.fs, "ckpt", 8); })
        .makespan;
  }();
  auto multi = [&] {
    SharedStorage st(4);
    std::vector<mpi::MultiRuntime::Job> jobs(1);
    jobs[0].name = "solo";
    jobs[0].params = job_params(4);
    jobs[0].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "ckpt", 8); };
    auto res = mpi::MultiRuntime::run(std::move(jobs));
    return res[0].result.makespan;
  }();
  // Fair-share arbitration with one active job reduces to FIFO exactly;
  // a lone tenant must not be able to tell the code paths apart.
  EXPECT_DOUBLE_EQ(single, multi);
}

TEST(MultiJob, ContendingJobsAreSlowerThanAlone) {
  auto solo = [&] {
    SharedStorage st(8);
    std::vector<mpi::MultiRuntime::Job> jobs(1);
    jobs[0].name = "a";
    jobs[0].params = job_params(4);
    jobs[0].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "a", 16); };
    return mpi::MultiRuntime::run(std::move(jobs))[0].result.makespan;
  }();

  SharedStorage st(8);
  std::vector<mpi::MultiRuntime::Job> jobs(2);
  jobs[0].name = "a";
  jobs[0].params = job_params(4);
  jobs[0].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "a", 16); };
  jobs[1].name = "b";
  jobs[1].params = job_params(4);
  jobs[1].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "b", 16); };
  auto res = mpi::MultiRuntime::run(std::move(jobs));
  ASSERT_EQ(res.size(), 2u);
  // Equal weights: both jobs see roughly half the device, so each takes
  // longer than it would alone — and neither is starved.
  EXPECT_GT(res[0].result.makespan, solo);
  EXPECT_GT(res[1].result.makespan, solo);
  const double ratio = res[0].result.makespan / res[1].result.makespan;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(MultiJob, WeightBiasesTheDeviceShare) {
  auto makespans = [&](double wa, double wb) {
    SharedStorage st(8);
    std::vector<mpi::MultiRuntime::Job> jobs(2);
    jobs[0].name = "a";
    jobs[0].params = job_params(4);
    jobs[0].weight = wa;
    jobs[0].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "a", 16); };
    jobs[1].name = "b";
    jobs[1].params = job_params(4);
    jobs[1].weight = wb;
    jobs[1].body = [&](mpi::Comm& c) { io_workload(c, st.fs, "b", 16); };
    auto res = mpi::MultiRuntime::run(std::move(jobs));
    return std::pair<double, double>(res[0].result.makespan,
                                     res[1].result.makespan);
  };
  auto [ea, eb] = makespans(1.0, 1.0);
  auto [ha, hb] = makespans(4.0, 1.0);
  // Boosting job a's weight speeds it up at job b's expense.
  EXPECT_LT(ha, ea);
  EXPECT_GE(hb, eb);
}

TEST(MultiJob, PerJobCounterScopesAppearOnlyWhenMultiTenant) {
  auto scopes_of = [&](int njobs) {
    SharedStorage st(8);
    std::vector<mpi::MultiRuntime::Job> jobs(
        static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) {
      jobs[static_cast<std::size_t>(j)].name = std::string(1, 'a' + j);
      jobs[static_cast<std::size_t>(j)].params = job_params(2);
      jobs[static_cast<std::size_t>(j)].body = [&st, j](mpi::Comm& c) {
        io_workload(c, st.fs, std::string(1, 'a' + j), 4);
      };
    }
    mpi::MultiRuntime::run(std::move(jobs));
    obs::MetricsRegistry reg;
    st.fs.export_counters(reg);
    std::vector<std::string> with_job;
    for (const auto& entry : reg.scopes()) {
      if (entry.first.find("|job:") != std::string::npos) {
        with_job.push_back(entry.first);
      }
    }
    return with_job;
  };
  // Single tenant: exports stay byte-identical to previous releases.
  EXPECT_TRUE(scopes_of(1).empty());
  // Two tenants: each gets its per-job traffic scope.
  auto multi = scopes_of(2);
  EXPECT_FALSE(multi.empty());
  bool saw_a = false, saw_b = false;
  for (const auto& s : multi) {
    if (s.find("|job:a") != std::string::npos) saw_a = true;
    if (s.find("|job:b") != std::string::npos) saw_b = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

/// A contended two-job run with detail telemetry on; returns the collector's
/// whole detail surface for cross-run/cross-seed comparison.
struct DetailRun {
  std::string fingerprint;   ///< integer gauge tracks, values only
  std::string registry_json; ///< full registry incl. hist:/timeline: scopes
};

DetailRun detail_run(std::uint64_t seed) {
  obs::Collector col;
  col.set_detail(true);
  SharedStorage st(8);
  std::vector<mpi::MultiRuntime::Job> jobs(2);
  jobs[0].name = "a";
  jobs[0].params = job_params(4);
  jobs[0].params.perturb_seed = seed;
  jobs[0].body = [&st](mpi::Comm& c) { io_workload(c, st.fs, "a", 8); };
  jobs[1].name = "b";
  jobs[1].params = job_params(4);
  jobs[1].body = [&st](mpi::Comm& c) { io_workload(c, st.fs, "b", 8); };
  obs::attach(&col);
  mpi::MultiRuntime::run(std::move(jobs));
  obs::detach();
  col.export_detail();
  DetailRun r;
  r.fingerprint = col.timeline().integer_fingerprint();
  r.registry_json = col.registry().to_json(2);
  return r;
}

// The detail surface — Timeline and Histogram registry scopes — exports
// byte-identically from run to run, and the integer gauge tracks survive
// schedule perturbation untouched.
TEST(MultiJob, DetailExportIsRunToRunIdenticalAndSeedStable) {
  const DetailRun ref = detail_run(0);
  ASSERT_FALSE(ref.fingerprint.empty());
  EXPECT_NE(ref.fingerprint.find("/job:"), std::string::npos)
      << "two contending jobs must surface per-job gauge tracks";
  EXPECT_NE(ref.registry_json.find("\"timeline:"), std::string::npos);
  EXPECT_NE(ref.registry_json.find("\"hist:"), std::string::npos);

  // A second run at the same seed: the *entire* detail registry
  // (double-valued histogram stats included) must match.
  const DetailRun again = detail_run(0);
  EXPECT_EQ(again.fingerprint, ref.fingerprint);
  EXPECT_EQ(again.registry_json, ref.registry_json);

  // Across perturbation seeds only the integer value sequences are promised
  // (timestamps of tied events may legitimately shift).
  for (std::uint64_t seed : {1ull, 2ull}) {
    EXPECT_EQ(detail_run(seed).fingerprint, ref.fingerprint)
        << "seed " << seed;
  }
}

// Satellite 6 at the timeline level: a lone tenant's detail telemetry has no
// per-job tracks at all — those exist only on genuinely multi-tenant runs.
TEST(MultiJob, LoneTenantDetailHasNoPerJobTracks) {
  obs::Collector col;
  col.set_detail(true);
  SharedStorage st(4);
  std::vector<mpi::MultiRuntime::Job> jobs(1);
  jobs[0].name = "solo";
  jobs[0].params = job_params(4);
  jobs[0].body = [&st](mpi::Comm& c) { io_workload(c, st.fs, "solo", 8); };
  obs::attach(&col);
  mpi::MultiRuntime::run(std::move(jobs));
  obs::detach();
  EXPECT_FALSE(col.timeline().empty());
  for (const auto& [name, track] : col.timeline().tracks()) {
    EXPECT_EQ(name.find("/job:"), std::string::npos)
        << "per-job track on a lone-tenant run: " << name;
  }
  obs::MetricsRegistry reg;
  st.fs.export_counters(reg);
  for (const auto& [scope, data] : reg.scopes()) {
    EXPECT_EQ(scope.find("|job:"), std::string::npos) << scope;
  }
}

// ---------------------------------------------------------------------------
// Fair-share arbitration at one I/O server (unit level).
// ---------------------------------------------------------------------------

TEST(FairShare, SingleJobMatchesPlainFifoExactly) {
  stor::DiskParams dp;
  stor::IoServer fifo(dp), fair(dp);
  double t_fifo = 0.0, t_fair = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto off = static_cast<std::uint64_t>(i) * 4096;
    t_fifo = fifo.serve(t_fifo, "f", off, 4096, i % 2 == 0);
    t_fair = fair.serve(t_fair, "f", off, 4096, i % 2 == 0, 0.0,
                        /*job=*/0, /*weight=*/1.0);
    EXPECT_DOUBLE_EQ(t_fair, t_fifo) << "request " << i;
  }
}

TEST(FairShare, BackloggedTenantsStretchEachOther) {
  stor::DiskParams dp;
  stor::IoServer srv(dp);
  // Job 0 builds a backlog; job 1's request issued inside that backlog is
  // stretched by (w0 + w1) / w1 = 2 relative to its raw service time.
  const double c0 = srv.serve(0.0, "a", 0, 1 * MiB, true, 0.0, 0, 1.0);
  const double raw = srv.serve(0.0, "b0", 0, 64 * KiB, true);  // FIFO probe
  (void)raw;
  stor::IoServer fresh(dp);
  const double alone = fresh.serve(0.0, "b", 0, 64 * KiB, true, 0.0, 1, 1.0);
  const double contended = srv.serve(0.0, "b", 0, 64 * KiB, true, 0.0, 1, 1.0);
  EXPECT_GT(contended, alone);
  EXPECT_LT(contended, c0 + alone);  // not FIFO-serialised behind job 0
  const auto& shares = srv.job_shares();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares.at(0).requests, 1u);
  EXPECT_EQ(shares.at(1).requests, 1u);
}

}  // namespace
}  // namespace paramrio
