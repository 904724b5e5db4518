// Stage — the burst-buffer staging tier (docs/STAGING.md; the
// generalization of the paper's Fig 9 node-local configuration).
//
// Three sections:
//
//  1. Dump latency vs destination stripe width, staged on/off: 4 ranks each
//     stream private 512 KiB chunks.  The direct rows move with the stripe
//     count (fewer servers = more contention); the staged rows must be
//     *flat* — the dump path touches only the writer's node-local spindle,
//     so the destination's geometry cannot appear in the write time.  The
//     staged rows carry the sync-drain time in the read_time column: that
//     is where the stripe-width dependence reappears, off the critical dump
//     path.
//
//  2. N-job burst absorption: N identical 4-rank writer jobs share one
//     destination StripedFs.  Direct jobs contend at the shared servers, so
//     the worst dump time grows ~N; staged jobs land on per-node local
//     disks and the dump time stays flat while the sync drains soak up the
//     backlog afterwards.
//
//  3. Async drain vs the dump's closing barrier, on one chiba_pvfs_ethernet
//     Testbed whose PVFS traffic and MPI messages share the NICs and the
//     12.5 MB/s backplane (the ledger's pipeline set-up).  Each rank stages
//     a dump, then either starts an async drain or does not, and runs the
//     closing barrier.  The drain runs ahead on the shadow clock, booking
//     the fabric out to its end; because drain traffic is the background
//     class, the "async" row's write_time (dump + barrier) must equal
//     the "no-drain" row's.  Its read_time is when the last drain settles.
//
// `--tiny` shrinks every axis for CI; `--json <path>` / PARAMRIO_BENCH_JSON
// emit the rows as BENCH_stage.json (the async run's staging-facade and
// network counters are attached to the final row).  The CI stage-smoke job
// asserts the staged "io=*" rows' write_time spread is zero, the two
// section-3 rows' write_times are equal, and compares against the committed
// baseline.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/registry.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/striped_fs.hpp"
#include "platform/machine.hpp"
#include "stage/staged_fs.hpp"

using namespace paramrio;

namespace {

constexpr std::uint64_t kChunk = 512 * KiB;
constexpr int kRanksPerJob = 4;

pfs::StripedFsParams striped_params(int n_io_nodes) {
  pfs::StripedFsParams sp;
  sp.stripe_size = 64 * KiB;
  sp.n_io_nodes = n_io_nodes;
  return sp;
}

/// One destination-class StripedFs plus a node-local staging tier and the
/// facade over both, sized for `total_ranks` writers.
struct Tiers {
  net::Network net;
  pfs::StripedFs dest;
  pfs::LocalDiskFs staging;
  stage::StagedFs staged;
  Tiers(int total_ranks, int n_io_nodes)
      : net(net::NetworkParams{}, total_ranks, n_io_nodes),
        dest(striped_params(n_io_nodes), net),
        staging(pfs::LocalDiskFsParams{}, total_ranks),
        staged(stage::StagedFsParams{}, staging, dest) {}
};

/// Every rank streams `chunks` private 512 KiB blocks into its own file.
void stream(mpi::Comm& c, pfs::FileSystem& fs, const std::string& file,
            int chunks) {
  std::vector<std::byte> buf(kChunk, std::byte{0x5A});
  const std::string path = file + "." + std::to_string(c.rank());
  int fd = fs.open(path, pfs::OpenMode::kCreate);
  for (int i = 0; i < chunks; ++i) {
    fs.write_at(fd, static_cast<std::uint64_t>(i) * kChunk, buf);
  }
  fs.close(fd);
}

struct DumpTiming {
  double write = 0.0;  ///< barrier-to-barrier write phase
  double drain = 0.0;  ///< barrier-to-barrier sync drain (staged only)
};

/// Single 4-rank job: write phase, then (staged only) a sync drain, each
/// phase barrier-fenced so every rank reads the same clock.
DumpTiming time_dump(int n_io_nodes, bool staged_on, int chunks) {
  Tiers t(kRanksPerJob, n_io_nodes);
  pfs::FileSystem& fs =
      staged_on ? static_cast<pfs::FileSystem&>(t.staged) : t.dest;
  DumpTiming timing;
  mpi::RuntimeParams rp;
  rp.nprocs = kRanksPerJob;
  rp.extra_fabric_nodes = n_io_nodes;
  mpi::Runtime rt(rp);
  rt.run([&](mpi::Comm& c) {
    c.barrier();
    const double t0 = c.proc().now();
    stream(c, fs, "dump", chunks);
    c.barrier();
    const double t1 = c.proc().now();
    if (staged_on) {
      t.staged.drain_mine(stage::DrainPolicy::kSync);
      c.barrier();
    }
    const double t2 = c.proc().now();
    if (c.rank() == 0) {
      timing.write = t1 - t0;
      timing.drain = t2 - t1;
    }
  });
  return timing;
}

/// Section 3: `nprocs` ranks on one shared-fabric Testbed stage a dump and
/// run the closing barrier, with or without an async drain started first.
/// write = dump + barrier; drain = when the last rank's drain settles.
DumpTiming time_closing_barrier(int nprocs, bool async_drain, int chunks,
                                obs::MetricsRegistry* registry) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), nprocs);
  pfs::LocalDiskFs staging(pfs::LocalDiskFsParams{}, nprocs);
  stage::StagedFs staged(stage::StagedFsParams{}, staging, tb.fs());
  DumpTiming timing;
  tb.runtime().run([&](mpi::Comm& c) {
    c.barrier();
    const double t0 = c.proc().now();
    stream(c, staged, "dump", chunks);
    if (async_drain) staged.drain_mine(stage::DrainPolicy::kAsync);
    c.barrier();
    const double t1 = c.proc().now();
    staged.drain_settle();
    c.barrier();
    if (c.rank() == 0) {
      timing.write = t1 - t0;
      timing.drain = async_drain ? c.proc().now() - t0 : 0.0;
    }
  });
  if (registry != nullptr) {
    staged.export_counters(*registry);
    tb.runtime().network().export_counters(*registry);
  }
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  bench::JsonReporter json("stage", argc, argv);

  const int chunks = tiny ? 4 : 16;
  const std::uint64_t job_bytes =
      static_cast<std::uint64_t>(kRanksPerJob) * chunks * kChunk;

  // ---- 1: dump latency vs destination stripe width -----------------------
  bench::print_header(
      "Stage — dump latency vs destination stripe width, staged on/off",
      "write col = dump phase; read col = sync drain; staged write rows "
      "must be flat");
  const std::vector<int> widths =
      tiny ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 16};
  for (int w : widths) {
    const std::string size = "io=" + std::to_string(w);
    for (bool staged_on : {false, true}) {
      DumpTiming d = time_dump(w, staged_on, chunks);
      bench::IoResult row;
      row.write_time = d.write;
      row.read_time = d.drain;
      row.fs_bytes_written = job_bytes;
      const std::string machine = staged_on ? "chiba-staged" : "chiba-direct";
      bench::print_row(machine, size, kRanksPerJob, bench::Backend::kMpiIo,
                       row);
      json.add_row(machine, size, kRanksPerJob, bench::Backend::kMpiIo, row);
    }
  }

  // ---- 2: N-job burst absorption -----------------------------------------
  bench::print_header(
      "Stage — N-job checkpoint burst on one shared destination",
      "worst per-job dump time; staged stays flat, direct grows ~N");
  const std::vector<int> job_counts =
      tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  for (int n : job_counts) {
    const std::string size = "jobs=" + std::to_string(n);
    for (bool staged_on : {false, true}) {
      Tiers t(n * kRanksPerJob, /*n_io_nodes=*/4);
      pfs::FileSystem& fs =
          staged_on ? static_cast<pfs::FileSystem&>(t.staged) : t.dest;
      std::vector<double> dump_times(static_cast<std::size_t>(n), 0.0);
      std::vector<mpi::MultiRuntime::Job> jobs;
      for (int j = 0; j < n; ++j) {
        mpi::MultiRuntime::Job job;
        job.name = "w" + std::to_string(j);
        job.params.nprocs = kRanksPerJob;
        job.body = [&fs, &t, &dump_times, j, chunks,
                    staged_on](mpi::Comm& c) {
          c.barrier();
          const double t0 = c.proc().now();
          stream(c, fs, "w" + std::to_string(j), chunks);
          c.barrier();
          if (c.rank() == 0) dump_times[static_cast<std::size_t>(j)] =
              c.proc().now() - t0;
          if (staged_on) {
            t.staged.drain_mine(stage::DrainPolicy::kSync);
            c.barrier();
          }
        };
        jobs.push_back(std::move(job));
      }
      auto res = mpi::MultiRuntime::run(std::move(jobs));
      double worst_dump = 0.0, worst_makespan = 0.0;
      for (double d : dump_times) worst_dump = std::max(worst_dump, d);
      for (const auto& jr : res) {
        worst_makespan = std::max(worst_makespan, jr.result.makespan);
      }
      bench::IoResult row;
      row.write_time = worst_dump;
      row.read_time = worst_makespan;  // dump + drain for the staged rows
      row.fs_bytes_written = static_cast<std::uint64_t>(n) * job_bytes;
      const std::string machine = staged_on ? "burst-staged" : "burst-direct";
      std::printf(
          "%-22s %-8s %2d jobs    worst dump %8.3fs  makespan %8.3fs\n",
          machine.c_str(), size.c_str(), n, worst_dump, worst_makespan);
      json.add_row(machine, size, n * kRanksPerJob, bench::Backend::kMpiIo,
                   row);
    }
  }

  // ---- 3: async drain vs the closing barrier on a shared fabric ----------
  bench::print_header(
      "Stage — async drain vs the dump's closing barrier (shared fabric)",
      "write col = dump + closing barrier, equal with and without the "
      "drain; read col = async drain settled");
  const int barrier_procs = tiny ? 8 : 16;
  obs::MetricsRegistry async_registry;
  for (bool async_drain : {false, true}) {
    const DumpTiming d =
        time_closing_barrier(barrier_procs, async_drain, chunks,
                             async_drain ? &async_registry : nullptr);
    bench::IoResult row;
    row.write_time = d.write;
    row.read_time = d.drain;
    row.fs_bytes_written =
        static_cast<std::uint64_t>(barrier_procs) * chunks * kChunk;
    const std::string size = async_drain ? "async" : "no-drain";
    bench::print_row("chiba-shared", size, barrier_procs,
                     bench::Backend::kMpiIo, row);
    json.add_row("chiba-shared", size, barrier_procs, bench::Backend::kMpiIo,
                 row);
  }
  // Attach the async run's counters (fs:staged scope: staged/drained bytes,
  // segment lifecycle, retry totals; net scope: background transfers) to
  // the final row.
  json.attach_registry(async_registry);
  return 0;
}
