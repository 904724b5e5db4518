// Microbenchmarks (google-benchmark) for the hot substrate primitives:
// datatype flattening, view-stream mapping, hyperslab run enumeration,
// particle (de)serialisation and sorting, refinement clustering, and the
// synthetic universe's field evaluation.  These are host-time benchmarks —
// they measure the reproduction's own code, not virtual platform time.
#include <benchmark/benchmark.h>

#include "amr/particles_par.hpp"
#include "amr/refine.hpp"
#include "amr/universe.hpp"
#include "hdf5/dataspace.hpp"
#include "mpi/datatype.hpp"
#include "net/network.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/striped_fs.hpp"

namespace {

using namespace paramrio;

void BM_SubarrayFlatten(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto t = mpi::Datatype::subarray({n, n, n}, {n / 2, n / 2, n / 2},
                                     {n / 4, n / 4, n / 4}, 4);
    benchmark::DoNotOptimize(t.segments().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n / 4));
}
BENCHMARK(BM_SubarrayFlatten)->Arg(32)->Arg(64)->Arg(128);

void BM_MapStream(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  auto t = mpi::Datatype::subarray({n, n, n}, {n / 2, n / 2, n / 2},
                                   {n / 4, n / 4, n / 4}, 4);
  std::vector<mpi::Segment> out;
  for (auto _ : state) {
    out.clear();
    t.map_stream(0, t.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MapStream)->Arg(32)->Arg(64)->Arg(128);

void BM_HyperslabRuns(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  hdf5::Dataspace s({n, n, n});
  s.select_block({1, 1, 1}, {n - 2, n - 2, n - 2});
  for (auto _ : state) {
    std::uint64_t steps = s.for_each_run([](const hdf5::Dataspace::Run&) {});
    benchmark::DoNotOptimize(steps);
  }
}
BENCHMARK(BM_HyperslabRuns)->Arg(32)->Arg(64)->Arg(128);

void BM_ParticlePackUnpack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  amr::ParticleSet p;
  p.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.id[i] = static_cast<std::int64_t>(i * 31 % n);
    p.pos[0][i] = 0.5;
  }
  for (auto _ : state) {
    auto bytes = amr::pack_particles(p);
    amr::ParticleSet q;
    amr::unpack_particles(bytes, q);
    benchmark::DoNotOptimize(q.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n * amr::ParticleSet::bytes_per_particle()));
}
BENCHMARK(BM_ParticlePackUnpack)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_LocalSortById(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  amr::ParticleSet base;
  base.resize(n);
  Rng rng(9);
  for (std::size_t i = 0; i < n; ++i) {
    base.id[i] = static_cast<std::int64_t>(rng.next_u64() % (4 * n));
  }
  for (auto _ : state) {
    amr::ParticleSet p = base;
    amr::local_sort_by_id(p);
    benchmark::DoNotOptimize(p.id.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LocalSortById)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_UniverseFillFields(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  amr::Universe u(7, 12);
  amr::Grid g;
  g.desc.dims = {n, n, n};
  for (auto _ : state) {
    u.fill_fields(g, 0.5);
    benchmark::DoNotOptimize(g.fields[0].data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_UniverseFillFields)->Arg(16)->Arg(32)->Arg(64);

void BM_ClusterFlags(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  amr::Universe u(7, 12);
  amr::Grid g;
  g.desc.dims = {n, n, n};
  u.fill_fields(g, 0.5);
  auto flags = amr::flag_overdense(g.fields[0], 3.2);
  amr::RefineParams rp;
  for (auto _ : state) {
    auto boxes = amr::cluster_flags(flags, rp);
    benchmark::DoNotOptimize(boxes.data());
  }
}
BENCHMARK(BM_ClusterFlags)->Arg(32)->Arg(64);

// ---- pfs interval bookkeeping ---------------------------------------------
// Host-time cost of the file systems' per-request range bookkeeping (write
// tokens, ownership maps, buffer-cache intervals) under an AMR256-scale
// stream of small strided writes.  Before the merged-run/coalescing fixes
// these structures grew one node per stripe or per request, so the walk in
// every subsequent request made the whole sweep quadratic; now they stay at
// one node per contiguous region and the curves below are ~linear.
//
// Each benchmark streams into one file system that outlives its runs
// (google-benchmark calls the function again for every repetition and while
// it sizes the iteration count).  A kCreate open truncates the file but the
// store keeps the object's memory, so after an untimed first pass no
// iteration grows the object or faults in fresh pages: the loop times the
// request path and its maps, not the kernel's page allocation.

void BM_StripedFsTokenStream(benchmark::State& state) {
  const auto requests = static_cast<int>(state.range(0));
  constexpr std::uint64_t kChunk = 64 * KiB;
  pfs::StripedFsParams fp;
  fp.write_lock_cost = ms(1);  // exercise the token-owner map
  static net::Network net(net::NetworkParams{}, 1, fp.n_io_nodes);
  static pfs::StripedFs fs(fp, net);
  sim::Engine::Options o;
  o.nprocs = 1;
  auto stream = [&] {
    sim::Engine::run(o, [&](sim::Proc&) {
      std::vector<std::byte> buf(kChunk);
      int fd = fs.open("stream", pfs::OpenMode::kCreate);
      for (int i = 0; i < requests; ++i) {
        fs.write_at(fd, static_cast<std::uint64_t>(i) * kChunk, buf);
      }
      fs.close(fd);
    });
  };
  stream();
  for (auto _ : state) stream();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          requests);
}
BENCHMARK(BM_StripedFsTokenStream)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_LocalDiskOwnershipStream(benchmark::State& state) {
  const auto requests = static_cast<int>(state.range(0));
  constexpr std::uint64_t kChunk = 64 * KiB;
  static pfs::LocalDiskFs fs(pfs::LocalDiskFsParams{}, /*nprocs=*/1);
  sim::Engine::Options o;
  o.nprocs = 1;
  auto stream = [&] {
    sim::Engine::run(o, [&](sim::Proc&) {
      std::vector<std::byte> buf(kChunk);
      int fd = fs.open("stream", pfs::OpenMode::kCreate);
      for (int i = 0; i < requests; ++i) {
        const auto off = static_cast<std::uint64_t>(i) * kChunk;
        fs.write_at(fd, off, buf);
        fs.read_at(fd, off, buf);  // ownership walk + page-cache intervals
      }
      fs.close(fd);
    });
  };
  stream();
  for (auto _ : state) stream();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          requests);
}
BENCHMARK(BM_LocalDiskOwnershipStream)->Arg(1024)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
