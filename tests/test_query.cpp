// The query/extract service: oracle-checked reads at scale.
//
//   * Oracle matrix: every extract, particle range query and metadata
//     lookup is byte-compared against an untimed re-read of the stored dump
//     bytes, for all four backends and schedule seeds {0,1,2}; results and
//     physical-read counters are schedule-invariant.
//   * Shared cache: N readers of the same hot region cost one physical
//     fetch per distinct sieve block; cache on/off, cold/warm, tiny
//     capacities and prefetch overlap all return identical bytes.
//   * Faults: transient errors and short reads during the read phase are
//     absorbed by the service's retry budget (direct and through a staged
//     facade) and converge to the no-fault bytes.
//   * Catalog: generation indexes persist through mdms::Catalog (load path
//     serves a fresh service without re-inspecting the dump), survive
//     save/load, honour tombstones, and v1 catalog files still load.
//   * On-demand decoding: open_generation decodes an HDF4 or HDF5 dump's
//     head; root-only traffic reads no subgrid metadata, concurrent readers
//     decode each subgrid once with build_index's reads, and a malformed
//     subgrid fails only the requests that touch it.
//   * Commit markers and malformed dumps: the service accepts exactly the
//     generations CheckpointSeries calls committed, and diagnoses a
//     malformed dump or index blob with a FormatError, as inspect_dump and
//     the restart do.
//   * Single-flight failures: when every reader races for one index build,
//     subgrid decode or block fetch and the claimant fails, each reader
//     re-runs the work itself: a torn marker or a malformed subgrid fails
//     every reader alike, and a one-off fetch error fails only its claimant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/byte_io.hpp"
#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/dump_inspect.hpp"
#include "enzo/simulation.hpp"
#include "fault/fault.hpp"
#include "mdms/catalog.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "pfs/local_disk_fs.hpp"
#include "pfs/local_fs.hpp"
#include "platform/machine.hpp"
#include "query/service.hpp"
#include "stage/staged_fs.hpp"

namespace paramrio {
namespace {

constexpr int kProcs = 4;
constexpr const char* kSeries = "qseries";

enzo::SimulationConfig workload() {
  enzo::SimulationConfig c;
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

enzo::DumpFormat format_of(Kind k) {
  switch (k) {
    case Kind::kHdf4:
      return enzo::DumpFormat::kHdf4;
    case Kind::kMpiIo:
      return enzo::DumpFormat::kMpiIo;
    case Kind::kHdf5:
      return enzo::DumpFormat::kHdf5;
    case Kind::kPnetcdf:
      return enzo::DumpFormat::kPnetcdf;
  }
  return enzo::DumpFormat::kUnknown;
}

std::unique_ptr<enzo::IoBackend> make_backend(Kind k, pfs::FileSystem& fs) {
  switch (k) {
    case Kind::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Kind::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs, mpi::io::Hints{});
    case Kind::kHdf5:
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs,
                                                         hdf5::FileConfig{});
    case Kind::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs, mpi::io::Hints{});
  }
  throw LogicError("bad backend kind");
}

/// The shared request set every reader issues: the full root field, a
/// z-slice, an interior octant, a strided column of another field, and (when
/// the hierarchy refined) the first subgrid in full.  The subgrid comes from
/// the hierarchy: an open index lists only the grids decoded so far, so
/// this request is what decodes an HDF4 or HDF5 subgrid on demand.
std::vector<query::SubVolumeRequest> request_list(
    const query::GenerationIndex& ix) {
  const auto& names = amr::baryon_field_names();
  std::vector<query::SubVolumeRequest> reqs;
  reqs.push_back({0, names[0], {0, 0, 0}, {16, 16, 16}});
  reqs.push_back({0, names[0], {8, 0, 0}, {1, 16, 16}});
  reqs.push_back({0, names[0], {4, 4, 4}, {6, 6, 6}});
  reqs.push_back({0, names[3], {0, 5, 7}, {16, 1, 1}});
  for (const amr::GridDescriptor& g : ix.meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    reqs.push_back({g.id, names[0], {0, 0, 0}, g.dims});
    break;
  }
  return reqs;
}

/// Untimed oracle: slice the sub-volume straight out of the stored bytes.
std::vector<float> oracle_extract(const stor::ObjectStore& store,
                                  const query::FieldExtent& e,
                                  const query::SubVolumeRequest& q) {
  std::vector<std::byte> raw(e.bytes);
  store.read_at(e.path, e.offset, raw);
  std::vector<float> cells(e.bytes / sizeof(float));
  std::memcpy(cells.data(), raw.data(), raw.size());
  std::vector<float> out;
  out.reserve(q.count[0] * q.count[1] * q.count[2]);
  for (std::uint64_t z = 0; z < q.count[0]; ++z) {
    for (std::uint64_t y = 0; y < q.count[1]; ++y) {
      for (std::uint64_t x = 0; x < q.count[2]; ++x) {
        out.push_back(cells[((q.start[0] + z) * e.dims[1] + q.start[1] + y) *
                                e.dims[2] +
                            q.start[2] + x]);
      }
    }
  }
  return out;
}

/// Untimed oracle: binary-search the stored (sorted) ID array and slice
/// every particle array for IDs in [lo, hi].
amr::ParticleSet oracle_particles(const stor::ObjectStore& store,
                                  const query::GenerationIndex& ix,
                                  std::uint64_t lo, std::uint64_t hi) {
  amr::ParticleSet set;
  const std::uint64_t n = ix.meta.n_particles;
  if (n == 0) return set;
  std::vector<std::byte> raw(n * sizeof(std::int64_t));
  store.read_at(ix.particles[0].path, ix.particles[0].offset, raw);
  std::vector<std::int64_t> ids(n);
  std::memcpy(ids.data(), raw.data(), raw.size());
  const auto first =
      std::lower_bound(ids.begin(), ids.end(),
                       static_cast<std::int64_t>(lo)) -
      ids.begin();
  const auto last = std::upper_bound(ids.begin(), ids.end(),
                                     static_cast<std::int64_t>(hi)) -
                    ids.begin();
  const std::size_t count = static_cast<std::size_t>(last - first);
  set.resize(count);
  if (count == 0) return set;
  for (std::size_t a = 0; a < ix.particles.size(); ++a) {
    const query::ParticleExtent& pe = ix.particles[a];
    std::vector<std::byte> buf(count * pe.elem_size);
    store.read_at(pe.path,
                  pe.offset + static_cast<std::uint64_t>(first) * pe.elem_size,
                  buf);
    enzo::particle_array_from_bytes(set, a, count, buf.data());
  }
  return set;
}

struct RunConfig {
  Kind kind = Kind::kMpiIo;
  std::uint64_t seed = 0;
  bool cache_enabled = true;
  bool sieving = true;
  bool overlap = false;
  std::uint64_t ds_block = 4 * KiB;
  std::uint64_t cache_capacity = 256 * MiB;
  int retries = 0;  ///< Hints::retry.max_retries for the service
  /// Armed between open_generation and the extracts (the marker probe and
  /// the index build run clean; the data path takes the faults).
  fault::Injector* faults = nullptr;
  bool staged = false;  ///< read through a LocalDiskFs-staged facade (kLazy)
  bool warm_pass = false;  ///< rank 0 replays the slice request when done
  mdms::Catalog* catalog = nullptr;
};

struct RunOutcome {
  std::vector<std::vector<float>> extracts;  ///< rank 0, all requests
  amr::ParticleSet prange;
  query::GenerationIndex index;
  query::ExtractPlan slice_plan;  ///< rank 0's cold z-slice plan
  query::ExtractPlan warm_plan;   ///< rank 0's warm replay plan
  std::uint64_t rank0_blocks = 0;  ///< sieve blocks across rank 0's requests
  double meta_time = 0.0;
  std::uint64_t meta_cycle = 0;
  std::uint64_t n_particles = 0;
  std::uint64_t demand_fetches = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t planned_runs = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t fs_retries = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t shared_waits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t index_loads = 0;
  std::uint64_t grid_decodes = 0;
};

/// One full session: dump generation 0 collectively, drop caches, then have
/// every rank issue the shared request set concurrently.  Results are
/// oracle-checked against the stored bytes and across ranks before return.
RunOutcome run_query(const RunConfig& cfg) {
  const std::string label =
      std::string(to_cstr(cfg.kind)) + "/seed" + std::to_string(cfg.seed);
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs, cfg.seed);
  std::unique_ptr<pfs::LocalDiskFs> staging;
  std::unique_ptr<stage::StagedFs> staged;
  pfs::FileSystem* fs = &tb.fs();
  if (cfg.staged) {
    staging =
        std::make_unique<pfs::LocalDiskFs>(pfs::LocalDiskFsParams{}, kProcs);
    stage::StagedFsParams sp;
    sp.stage_retry.max_retries = 6;
    staged = std::make_unique<stage::StagedFs>(sp, *staging, tb.fs());
    fs = staged.get();
  }
  if (cfg.faults != nullptr) {
    // Attached to the facade (the logical namespace the specs match on);
    // in the staged case the staging tier beneath is reached through it.
    cfg.faults->set_enabled(false);
    fs->attach_fault_hook(cfg.faults);
  }

  query::Service::Params qp;
  qp.hints.ds_buffer_size = cfg.ds_block;
  qp.hints.data_sieving_reads = cfg.sieving;
  qp.hints.overlap = cfg.overlap;
  qp.hints.retry.max_retries = cfg.retries;
  qp.cache_enabled = cfg.cache_enabled;
  qp.cache_capacity = cfg.cache_capacity;
  query::Service svc(*fs, kSeries, qp);
  if (cfg.catalog != nullptr) svc.attach_catalog(cfg.catalog);

  RunOutcome out;
  std::vector<std::vector<std::vector<float>>> per_rank(kProcs);
  std::vector<amr::ParticleSet> per_rank_particles(kProcs);

  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(cfg.kind, *fs);
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    sim.evolve_cycle();
    enzo::CheckpointSeries series(*backend, *fs, kSeries);
    if (cfg.staged) series.set_staging(*staged, stage::DrainPolicy::kLazy);
    series.dump(c, sim.state(), 0);
    c.barrier();
    if (c.rank() == 0) {
      fs->drop_caches();
      EXPECT_EQ(enzo::detect_dump_format(*fs, series.gen_base(0)),
                format_of(cfg.kind))
          << label;
    }
    c.barrier();

    const query::GenerationIndex& ix = svc.open_generation(0);
    c.barrier();
    if (c.rank() == 0 && cfg.faults != nullptr) {
      cfg.faults->set_enabled(true);
    }
    c.barrier();

    const auto reqs = request_list(ix);
    auto& mine = per_rank[static_cast<std::size_t>(c.rank())];
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      query::ExtractPlan plan;
      mine.push_back(svc.extract(0, reqs[i], &plan));
      if (c.rank() == 0) {
        out.rank0_blocks += plan.blocks;
        if (i == 1) out.slice_plan = plan;
      }
    }
    const std::uint64_t span = ix.id_max - ix.id_min;
    query::ExtractPlan pplan;
    per_rank_particles[static_cast<std::size_t>(c.rank())] =
        svc.particles(0, ix.id_min + span / 4, ix.id_min + span / 2, &pplan);
    if (c.rank() == 0) out.rank0_blocks += pplan.blocks;

    const enzo::DumpMeta& m = svc.metadata(0);
    if (c.rank() == 0) {
      out.index = ix;
      out.meta_time = m.time;
      out.meta_cycle = m.cycle;
      out.n_particles = m.n_particles;
      EXPECT_FALSE(svc.attribute(0, "metadata").empty()) << label;
    }
    c.barrier();
    if (cfg.warm_pass && c.rank() == 0) {
      query::ExtractPlan plan;
      EXPECT_EQ(svc.extract(0, reqs[1], &plan), mine[1]) << label;
      out.warm_plan = plan;
    }
    c.barrier();
  });

  for (int r = 1; r < kProcs; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
        << label << ": rank " << r << " extracts diverged";
    EXPECT_EQ(per_rank_particles[static_cast<std::size_t>(r)],
              per_rank_particles[0])
        << label << ": rank " << r << " particles diverged";
  }
  out.extracts = per_rank[0];
  out.prange = per_rank_particles[0];
  out.demand_fetches = svc.demand_fetches();
  out.fetched_bytes = svc.fetched_bytes();
  out.planned_runs = svc.planned_runs();
  out.io_retries = svc.io_retries();
  out.fs_retries = fs->fs_retries();
  out.prefetches = svc.prefetches();
  out.shared_waits = svc.shared_fetch_waits();
  out.cache_hits = svc.cache().hits();
  out.cache_evictions = svc.cache().evictions();
  out.index_builds = svc.index_builds();
  out.index_loads = svc.index_loads();
  out.grid_decodes = svc.grid_decodes();

  // The oracle: every returned byte must equal an untimed re-read of the
  // stored dump, sliced by plain loops.
  const stor::ObjectStore& store = fs->store();
  const auto reqs = request_list(out.index);
  EXPECT_EQ(out.extracts.size(), reqs.size()) << label;
  if (out.extracts.size() != reqs.size()) return out;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(out.extracts[i],
              oracle_extract(
                  store, out.index.field(reqs[i].grid_id, reqs[i].field),
                  reqs[i]))
        << label << ": request " << i << " diverged from the stored bytes";
  }
  const std::uint64_t span = out.index.id_max - out.index.id_min;
  EXPECT_EQ(out.prange,
            oracle_particles(store, out.index, out.index.id_min + span / 4,
                             out.index.id_min + span / 2))
      << label << ": particle range diverged from the stored bytes";
  return out;
}

void expect_same_payload(const RunOutcome& a, const RunOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.extracts, b.extracts) << label;
  EXPECT_EQ(a.prange, b.prange) << label;
  EXPECT_DOUBLE_EQ(a.meta_time, b.meta_time) << label;
  EXPECT_EQ(a.meta_cycle, b.meta_cycle) << label;
  EXPECT_EQ(a.n_particles, b.n_particles) << label;
}

// ---------------------------------------------------------------------------
// Oracle matrix: backends x schedule seeds.
// ---------------------------------------------------------------------------

class QueryDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryDifferential, AllBackendsAllSeedsMatchTheOracle) {
  const std::uint64_t seed = GetParam();
  for (Kind kind : kAllKinds) {
    RunConfig cfg;
    cfg.kind = kind;
    cfg.seed = seed;
    const RunOutcome out = run_query(cfg);
    EXPECT_EQ(out.index.format, format_of(kind));
    EXPECT_EQ(out.index_builds, 1u);
    EXPECT_GT(out.demand_fetches, 0u);
    // Four identical readers share one cache: the physical fetch count is
    // bounded by one reader's block touches, never scaled by N.
    EXPECT_LE(out.demand_fetches, out.rank0_blocks);
    EXPECT_GT(out.cache_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SchedSeeds, QueryDifferential,
                         ::testing::Values(0ull, 1ull, 2ull),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(QueryDifferential, CountersAreSeedInvariant) {
  RunConfig cfg;
  cfg.kind = Kind::kHdf5;
  cfg.seed = 0;
  const RunOutcome base = run_query(cfg);
  for (std::uint64_t seed : {1ull, 2ull}) {
    cfg.seed = seed;
    const RunOutcome o = run_query(cfg);
    const std::string label = "hdf5 seed0-vs-seed" + std::to_string(seed);
    expect_same_payload(base, o, label);
    EXPECT_EQ(base.demand_fetches, o.demand_fetches) << label;
    EXPECT_EQ(base.fetched_bytes, o.fetched_bytes) << label;
    EXPECT_EQ(base.planned_runs, o.planned_runs) << label;
  }
}

// ---------------------------------------------------------------------------
// Cache behaviour: on/off identity, cold/warm, tiny capacity, overlap,
// sieving off.
// ---------------------------------------------------------------------------

TEST(QueryCache, SharedCacheCutsPhysicalReadsWithoutChangingBytes) {
  RunConfig on;
  on.kind = Kind::kMpiIo;
  RunConfig off = on;
  off.cache_enabled = false;
  const RunOutcome with_cache = run_query(on);
  const RunOutcome without = run_query(off);
  expect_same_payload(with_cache, without, "cache on-vs-off");
  // Four readers of the same regions: the shared cache collapses their
  // physical traffic; uncached every reader pays its own fetches.
  EXPECT_LT(with_cache.fetched_bytes, without.fetched_bytes);
  EXPECT_GT(with_cache.cache_hits, 0u);
  EXPECT_EQ(without.cache_hits, 0u);
  EXPECT_EQ(without.demand_fetches, 0u);
}

TEST(QueryCache, WarmReplayIsServedEntirelyFromCache) {
  RunConfig cfg;
  cfg.kind = Kind::kHdf5;
  cfg.warm_pass = true;
  const RunOutcome o = run_query(cfg);
  EXPECT_GT(o.warm_plan.blocks, 0u);
  EXPECT_EQ(o.warm_plan.cache_misses, 0u);
  EXPECT_EQ(o.warm_plan.cache_hits, o.warm_plan.blocks);
}

TEST(QueryCache, TinyCapacityEvictsButStaysByteIdentical) {
  RunConfig cfg;
  cfg.kind = Kind::kMpiIo;
  cfg.cache_capacity = 16 * KiB;  // 4 blocks of 4 KiB
  RunConfig ample = cfg;
  ample.cache_capacity = 256 * MiB;
  const RunOutcome tiny = run_query(cfg);  // oracle-checked inside
  const RunOutcome big = run_query(ample);
  expect_same_payload(tiny, big, "tiny-vs-ample cache");
  EXPECT_GT(tiny.cache_evictions, 0u);
  EXPECT_EQ(big.cache_evictions, 0u);
}

TEST(QueryCache, PrefetchOverlapMatchesAndPrefetches) {
  RunConfig plain;
  plain.kind = Kind::kHdf5;
  RunConfig overlapped = plain;
  overlapped.overlap = true;
  const RunOutcome base = run_query(plain);
  const RunOutcome pre = run_query(overlapped);
  expect_same_payload(base, pre, "overlap on-vs-off");
  EXPECT_GT(pre.prefetches, 0u);
  EXPECT_EQ(base.prefetches, 0u);
}

TEST(QueryCache, SievingOffTakesExactReadsWithIdenticalBytes) {
  RunConfig sieved;
  sieved.kind = Kind::kPnetcdf;
  RunConfig exact = sieved;
  exact.sieving = false;
  const RunOutcome a = run_query(sieved);
  const RunOutcome b = run_query(exact);
  expect_same_payload(a, b, "sieving on-vs-off");
  EXPECT_EQ(b.cache_hits, 0u);
  EXPECT_EQ(b.demand_fetches, 0u);
  EXPECT_EQ(b.slice_plan.blocks, 0u);
}

// ---------------------------------------------------------------------------
// Faults: the read phase absorbs transient errors and short reads.
// ---------------------------------------------------------------------------

fault::FaultPlan read_fault_plan() {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultSpec transient;
  transient.kind = fault::FaultKind::kTransientError;
  transient.path_substr = std::string(kSeries) + ".g0";
  transient.match_writes = false;
  transient.probability = 0.3;
  transient.max_consecutive = 2;
  plan.specs.push_back(transient);
  fault::FaultSpec shorty;
  shorty.kind = fault::FaultKind::kShortRead;
  shorty.path_substr = std::string(kSeries) + ".g0";
  shorty.match_writes = false;
  shorty.probability = 0.3;
  shorty.short_fraction = 0.5;
  shorty.max_consecutive = 2;
  plan.specs.push_back(shorty);
  return plan;
}

TEST(QueryFaults, TransientErrorsAndShortReadsConverge) {
  RunConfig clean;
  clean.kind = Kind::kHdf5;
  const RunOutcome base = run_query(clean);

  fault::Injector inj(read_fault_plan());
  RunConfig faulted = clean;
  faulted.faults = &inj;
  faulted.retries = 8;
  const RunOutcome o = run_query(faulted);  // oracle-checked inside
  expect_same_payload(base, o, "faulted read phase");
  EXPECT_GT(inj.counters().injected_total(), 0u);
  EXPECT_GT(o.io_retries, 0u);
}

TEST(QueryFaults, StagedFacadeWithFaultedStagingTierConverges) {
  RunConfig direct;
  direct.kind = Kind::kMpiIo;
  const RunOutcome base = run_query(direct);

  fault::Injector inj(read_fault_plan());
  RunConfig staged = direct;
  staged.staged = true;
  staged.faults = &inj;
  staged.retries = 8;
  const RunOutcome o = run_query(staged);  // oracle-checked inside
  expect_same_payload(base, o, "staged+faulted read phase");
  EXPECT_GT(inj.counters().injected_total(), 0u);
}

// ---------------------------------------------------------------------------
// Catalog persistence: indexes survive the process, tombstones stick, v1
// catalog files still load.
// ---------------------------------------------------------------------------

TEST(QueryCatalog, IndexPersistsAndServesAFreshService) {
  mdms::Catalog catalog;
  RunConfig cfg;
  cfg.kind = Kind::kHdf5;
  cfg.catalog = &catalog;
  const RunOutcome built = run_query(cfg);
  EXPECT_EQ(built.index_builds, 1u);
  EXPECT_EQ(built.index_loads, 0u);
  const std::vector<std::byte>* blob = catalog.series_index(kSeries, 0);
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(query::GenerationIndex::deserialize(*blob).serialize(), *blob);

  // A second session over an identical dump is served from the catalog:
  // no re-inspection, byte-identical answers (the oracle inside run_query
  // validates the *loaded* index against the new store).
  const RunOutcome loaded = run_query(cfg);
  EXPECT_EQ(loaded.index_builds, 0u);
  EXPECT_EQ(loaded.index_loads, 1u);
  expect_same_payload(built, loaded, "built-vs-loaded index");
  // The blob holds the head; both sessions decode the one subgrid their
  // requests touch on demand.
  EXPECT_EQ(built.grid_decodes, 1u);
  EXPECT_EQ(loaded.grid_decodes, 1u);

  // Save/load keeps the blob; tombstones survive the round trip so a stale
  // file can never resurrect a dropped generation.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options so;
  so.nprocs = 1;
  sim::Engine::run(so, [&](sim::Proc&) {
    catalog.save(fs, "catalog.mdms");
    mdms::Catalog back = mdms::Catalog::load(fs, "catalog.mdms");
    const std::vector<std::byte>* rblob = back.series_index(kSeries, 0);
    ASSERT_NE(rblob, nullptr);
    EXPECT_EQ(*rblob, *blob);
    EXPECT_EQ(back.series_generations(kSeries),
              (std::vector<std::uint64_t>{0}));

    back.drop_series_index(kSeries, 0);
    EXPECT_EQ(back.series_index(kSeries, 0), nullptr);
    EXPECT_TRUE(back.series_generations(kSeries).empty());
    back.save(fs, "catalog.mdms");
    mdms::Catalog again = mdms::Catalog::load(fs, "catalog.mdms");
    EXPECT_EQ(again.series_index(kSeries, 0), nullptr);
    again.put_series_index(kSeries, 0, *blob);
    EXPECT_NE(again.series_index(kSeries, 0), nullptr);
  });
}

TEST(QueryCatalog, VersionOneCatalogFilesStillLoad) {
  ByteWriter w;
  w.u32(0x534D444D);  // "MDMS", the version-less records-only format
  w.u64(0);           // no records
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::Options so;
  so.nprocs = 1;
  sim::Engine::run(so, [&](sim::Proc&) {
    auto bytes = w.take();
    int fd = fs.open("old.mdms", pfs::OpenMode::kCreate);
    fs.write_at(fd, 0, bytes);
    fs.close(fd);
    mdms::Catalog c = mdms::Catalog::load(fs, "old.mdms");
    EXPECT_EQ(c.size(), 0u);
    EXPECT_TRUE(c.series_generations(kSeries).empty());
  });
}

// ---------------------------------------------------------------------------
// Commit-marker discipline: only committed generations are served.
// ---------------------------------------------------------------------------

TEST(QueryService, OverlongCommitMarkerIsRejectedLikeTheSeries) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kMpiIo, tb.fs());
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    enzo::CheckpointSeries series(*backend, tb.fs(), kSeries);
    series.dump(c, sim.state(), 0);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_TRUE(series.committed(0));
      // One byte appended to a valid marker: neither the series' restore
      // nor the query service may take generation 0 as committed.
      tb.fs().store().write_at(series.marker_path(0),
                               enzo::kCommitMarkerBytes,
                               std::vector<std::byte>(1));
      tb.fs().drop_caches();
      EXPECT_FALSE(series.committed(0));
      EXPECT_THROW(svc.metadata(0), IoError);
    }
    c.barrier();
  });
}

TEST(QueryService, UncommittedAndTornGenerationsAreRejected) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kMpiIo, tb.fs());
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    sim.evolve_cycle();
    enzo::CheckpointSeries series(*backend, tb.fs(), kSeries);
    series.dump(c, sim.state(), 0);
    c.barrier();
    if (c.rank() == 0) {
      // Generation 1 was never dumped.
      EXPECT_THROW(svc.metadata(1), IoError);
      // Generation 2 has a marker-shaped file with the wrong magic: torn.
      ByteWriter w;
      w.u64(0xDEADBEEFDEADBEEFULL);
      w.u64(2);
      auto bytes = w.take();
      int fd = tb.fs().open(std::string(kSeries) + ".g2.ok",
                            pfs::OpenMode::kCreate);
      tb.fs().write_at(fd, 0, bytes);
      tb.fs().close(fd);
      EXPECT_THROW(svc.metadata(2), IoError);
      // Generation 0 is committed and serves normally.
      EXPECT_EQ(svc.metadata(0).cycle, sim.state().cycle);
    }
    c.barrier();
  });
}

TEST(QueryService, ReadersThatWaitForTheIndexResumeAtItsReadyTime) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  std::vector<double> opened(kProcs, 0.0);
  std::vector<std::uint64_t> read(kProcs, 0);
  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kHdf5, tb.fs());
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    enzo::CheckpointSeries series(*backend, tb.fs(), kSeries);
    series.dump(c, sim.state(), 0);
    c.barrier();
    const auto me = static_cast<std::size_t>(c.rank());
    const std::uint64_t r0 = c.proc().stats().io_bytes_read;
    svc.open_generation(0);
    opened[me] = c.proc().now();
    read[me] = c.proc().stats().io_bytes_read - r0;
  });
  // One rank read the dump to build the index; the other three blocked on
  // it and may not use the index before it exists.
  EXPECT_EQ(svc.index_builds(), 1u);
  ASSERT_EQ(std::count_if(read.begin(), read.end(),
                          [](std::uint64_t b) { return b > 0; }),
            1);
  const auto builder = static_cast<std::size_t>(
      std::find_if(read.begin(), read.end(),
                   [](std::uint64_t b) { return b > 0; }) -
      read.begin());
  for (std::size_t r = 0; r < opened.size(); ++r) {
    EXPECT_GE(opened[r], opened[builder]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// On-demand subgrid decoding: open_generation decodes an HDF4 or HDF5
// dump's head; a subgrid's metadata is read when a request first touches it.
// ---------------------------------------------------------------------------

/// The reads a file system serves while attached.
class ReadLog : public pfs::IoObserver {
 public:
  struct Read {
    std::string path;
    std::uint64_t offset = 0;
  };
  void on_io(double, int, bool is_write, const std::string& path,
             std::uint64_t offset, std::uint64_t bytes, int) override {
    if (is_write) return;
    reads.push_back({path, offset});
    bytes_read += bytes;
  }
  std::vector<Read> reads;
  std::uint64_t bytes_read = 0;
};

std::uint64_t span_count(const obs::Collector& col, const std::string& name) {
  return static_cast<std::uint64_t>(
      std::count_if(col.spans().begin(), col.spans().end(),
                    [&](const obs::SpanRecord& s) { return s.name == name; }));
}

/// Dump generation 0 of `kind` collectively; rank 0 then drops the caches.
void dump_generation(mpi::Comm& c, Kind kind, pfs::FileSystem& fs) {
  auto backend = make_backend(kind, fs);
  enzo::EnzoSimulation sim(c, workload());
  sim.initialize_from_universe();
  sim.evolve_cycle();
  enzo::CheckpointSeries series(*backend, fs, kSeries);
  series.dump(c, sim.state(), 0);
  c.barrier();
  if (c.rank() == 0) fs.drop_caches();
  c.barrier();
}

TEST(QueryOnDemand, RootOnlyTrafficReadsNoSubgridMetadata) {
  for (Kind kind : {Kind::kHdf4, Kind::kHdf5}) {
    const std::string label = to_cstr(kind);
    platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
    query::Service svc(tb.fs(), kSeries, query::Service::Params{});
    ReadLog log;
    obs::Collector col;
    query::GenerationIndex head;
    tb.runtime().run([&](mpi::Comm& c) {
      dump_generation(c, kind, tb.fs());
      if (c.rank() == 0) {
        tb.fs().attach_observer(&log);
        obs::attach(&col);
      }
      c.barrier();
      const query::GenerationIndex& ix = svc.open_generation(0);
      for (const query::SubVolumeRequest& r : request_list(ix)) {
        if (r.grid_id == 0) svc.extract(0, r);
      }
      const std::uint64_t span = ix.id_max - ix.id_min;
      svc.particles(0, ix.id_min + span / 4, ix.id_min + span / 2);
      svc.metadata(0);
      c.barrier();
      if (c.rank() == 0) {
        tb.fs().attach_observer(nullptr);
        obs::detach();
        head = ix;
      }
    });
    ASSERT_GT(head.meta.hierarchy.grid_count(), 1u) << label;
    EXPECT_EQ(head.fields.size(), 1u) << label << ": only the root decoded";
    EXPECT_EQ(svc.grid_decodes(), 0u) << label;
    EXPECT_EQ(span_count(col, "query.open"), 1u) << label;
    EXPECT_EQ(span_count(col, "query.decode"), 0u) << label;
    obs::MetricsRegistry reg;
    svc.export_counters(reg);
    EXPECT_EQ(reg.to_json().find("grid_decodes"), std::string::npos)
        << label << ": a root-only export must not change";

    // HDF4: no subgrid file is read.  HDF5: nothing past the head's last
    // dataset (creation order puts every subgrid record after it) is read.
    const std::string base = enzo::generation_base(kSeries, 0);
    std::set<std::string> subgrid_files;
    for (const amr::GridDescriptor& g : head.meta.hierarchy.grids()) {
      if (g.level > 0) subgrid_files.insert(enzo::subgrid_file_name(base, g.id));
    }
    std::uint64_t head_end = 0;
    for (const auto& [name, e] : head.fields.at(0)) {
      head_end = std::max(head_end, e.offset + e.bytes);
    }
    for (const query::ParticleExtent& p : head.particles) {
      head_end =
          std::max(head_end, p.offset + head.meta.n_particles * p.elem_size);
    }
    ASSERT_FALSE(log.reads.empty());
    for (const ReadLog::Read& r : log.reads) {
      EXPECT_EQ(subgrid_files.count(r.path), 0u) << label << ": " << r.path;
      if (r.path == base + ".h5") {
        EXPECT_LT(r.offset, head_end) << label << ": read past the head";
      }
    }
  }
}

TEST(QueryOnDemand, ConcurrentReadersDecodeEachGridOnceWithBuildIndexReads) {
  for (Kind kind : {Kind::kHdf4, Kind::kHdf5}) {
    const std::string label = to_cstr(kind);
    platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
    query::Service svc(tb.fs(), kSeries, query::Service::Params{});
    ReadLog served;
    ReadLog built;
    obs::Collector col;
    query::GenerationIndex full;
    std::vector<std::vector<query::SubVolumeRequest>> reqs(kProcs);
    std::vector<std::vector<std::vector<float>>> got(kProcs);
    const auto& names = amr::baryon_field_names();
    tb.runtime().run([&](mpi::Comm& c) {
      dump_generation(c, kind, tb.fs());
      if (c.rank() == 0) {
        tb.fs().attach_observer(&served);
        obs::attach(&col);
      }
      c.barrier();
      // Every reader touches every grid, each starting a quarter of the
      // hierarchy further on, so their first touches collide.
      const query::GenerationIndex& ix = svc.open_generation(0);
      const auto& grids = ix.meta.hierarchy.grids();
      const auto me = static_cast<std::size_t>(c.rank());
      for (std::size_t i = 0; i < grids.size(); ++i) {
        const amr::GridDescriptor& g =
            grids[(i + me * grids.size() / kProcs) % grids.size()];
        reqs[me].push_back({g.id, names[0], {0, 0, 0}, g.dims});
        got[me].push_back(svc.extract(0, reqs[me].back()));
      }
      c.barrier();
      if (c.rank() == 0) {
        tb.fs().attach_observer(nullptr);
        obs::detach();
        tb.fs().drop_caches();
        tb.fs().attach_observer(&built);
        full = query::build_index(tb.fs(), enzo::generation_base(kSeries, 0),
                                  0);
        tb.fs().attach_observer(nullptr);
      }
    });
    const std::uint64_t subgrids = full.meta.hierarchy.grid_count() - 1;
    ASSERT_GT(subgrids, 1u) << label;
    EXPECT_EQ(svc.grid_decodes(), subgrids) << label;
    // One head decode; one step per HDF4 subgrid file, while an HDF5 step
    // adds every grid its walk passes.
    EXPECT_EQ(span_count(col, "query.open"), 1u) << label;
    if (kind == Kind::kHdf4) {
      EXPECT_EQ(span_count(col, "query.decode"), subgrids) << label;
    } else {
      EXPECT_GE(span_count(col, "query.decode"), 1u) << label;
      EXPECT_LE(span_count(col, "query.decode"), subgrids) << label;
    }
    obs::MetricsRegistry reg;
    svc.export_counters(reg);
    EXPECT_EQ(reg.get("query", "grid_decodes"), subgrids) << label;

    // Everything the readers read besides the commit marker (one 16-byte
    // read) and their data blocks (one read per demand fetch) is metadata:
    // exactly build_index's reads, moved to the readers that needed them.
    EXPECT_EQ(served.reads.size() - 1 - svc.demand_fetches(),
              built.reads.size())
        << label;
    EXPECT_EQ(served.bytes_read - enzo::kCommitMarkerBytes -
                  svc.fetched_bytes(),
              built.bytes_read)
        << label;

    const stor::ObjectStore& store = tb.fs().store();
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      ASSERT_EQ(got[r].size(), reqs[r].size()) << label;
      for (std::size_t i = 0; i < reqs[r].size(); ++i) {
        const query::SubVolumeRequest& q = reqs[r][i];
        EXPECT_EQ(got[r][i],
                  oracle_extract(store, full.field(q.grid_id, q.field), q))
            << label << ": rank " << r << ", grid " << q.grid_id;
      }
    }
  }
}

/// The message of the FormatError `call` throws, or "" when it succeeds.
template <typename Call>
std::string format_error(Call call) {
  try {
    call();
  } catch (const FormatError& e) {
    return e.what();
  }
  return "";
}

TEST(QueryOnDemand, TruncatedHdf4SubgridFileFailsOnlyItsGrid) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  tb.runtime().run([&](mpi::Comm& c) {
    dump_generation(c, Kind::kHdf4, tb.fs());
    if (c.rank() != 0) return;
    const std::string base = enzo::generation_base(kSeries, 0);
    std::vector<amr::GridDescriptor> subs;
    {
      const enzo::DumpLayout l = enzo::decode_dump(tb.fs(), base);
      for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
        if (g.level > 0) subs.push_back(g);
      }
    }
    ASSERT_GE(subs.size(), 2u);
    // Cut the first subgrid's file inside its first record's header.
    const std::string path = enzo::subgrid_file_name(base, subs[0].id);
    std::vector<std::byte> bytes(8 + 8 + 3);
    tb.fs().store().read_at(path, 0, bytes);
    tb.fs().store().create(path);
    tb.fs().store().write_at(path, 0, bytes);
    tb.fs().drop_caches();

    const auto& names = amr::baryon_field_names();
    const query::GenerationIndex& ix = svc.open_generation(0);
    const query::SubVolumeRequest root{0, names[0], {0, 0, 0}, {16, 16, 16}};
    EXPECT_EQ(svc.extract(0, root),
              oracle_extract(tb.fs().store(), ix.field(0, names[0]), root));
    const std::string err = format_error([&] {
      svc.extract(0, {subs[0].id, names[0], {0, 0, 0}, subs[0].dims});
    });
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_NE(err.find("offset 8"), std::string::npos) << err;
    const query::SubVolumeRequest other{subs[1].id, names[0], {0, 0, 0},
                                        subs[1].dims};
    const std::vector<float> got = svc.extract(0, other);
    EXPECT_EQ(got, oracle_extract(tb.fs().store(),
                                  ix.field(subs[1].id, names[0]), other));
  });
}

/// Offset of the PH5 record that holds dataset `name`, from stored bytes.
std::uint64_t h5_record_offset(const std::vector<std::byte>& b,
                               const std::string& name) {
  ByteReader sb(std::span<const std::byte>(b).subspan(16, 8));
  for (std::uint64_t pos = sb.u64(); pos != 0;) {
    ByteReader r(std::span<const std::byte>(b).subspan(pos));
    r.skip(8);  // kind, header length
    const std::uint64_t next = r.u64();
    if (r.str() == name) return pos;
    pos = next;
  }
  ADD_FAILURE() << "no record " << name;
  return 0;
}

TEST(QueryOnDemand, CorruptHdf5RecordPastTheHeadFailsOnFirstTouch) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  tb.runtime().run([&](mpi::Comm& c) {
    dump_generation(c, Kind::kHdf5, tb.fs());
    if (c.rank() != 0) return;
    const std::string base = enzo::generation_base(kSeries, 0);
    const std::string path = base + ".h5";
    std::vector<amr::GridDescriptor> subs;
    {
      const enzo::DumpLayout l = enzo::decode_dump(tb.fs(), base);
      for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
        if (g.level > 0) subs.push_back(g);
      }
    }
    ASSERT_GE(subs.size(), 2u);
    // Give the last subgrid's first record an unknown kind.
    const auto& names = amr::baryon_field_names();
    std::vector<std::byte> bytes(tb.fs().store().size(path));
    tb.fs().store().read_at(path, 0, bytes);
    const std::uint64_t bad = h5_record_offset(
        bytes, enzo::subgrid_group(subs.back().id) + names[0]);
    ByteWriter w;
    w.u32(7);
    tb.fs().store().write_at(path, bad, w.take());
    tb.fs().drop_caches();

    const query::GenerationIndex& ix = svc.open_generation(0);
    const query::SubVolumeRequest root{0, names[0], {0, 0, 0}, {16, 16, 16}};
    EXPECT_EQ(svc.extract(0, root),
              oracle_extract(tb.fs().store(), ix.field(0, names[0]), root));
    // Grids before the bad record keep serving.
    const query::SubVolumeRequest first{subs[0].id, names[0], {0, 0, 0},
                                        subs[0].dims};
    const std::vector<float> got = svc.extract(0, first);
    EXPECT_EQ(got, oracle_extract(tb.fs().store(),
                                  ix.field(subs[0].id, names[0]), first));
    const std::string err = format_error([&] {
      svc.extract(0, {subs.back().id, names[0], {0, 0, 0}, subs.back().dims});
    });
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_NE(err.find("offset " + std::to_string(bad) + ":"),
              std::string::npos)
        << err;
  });
}

// ---------------------------------------------------------------------------
// Malformed dumps and index blobs: inspect_dump, the index and the restart
// share one decoder per format, so they diagnose a defect the same way.
// ---------------------------------------------------------------------------

TEST(QueryService, MissingHdf4SubgridFileIsAFormatError) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(Kind::kHdf4, tb.fs());
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    enzo::CheckpointSeries series(*backend, tb.fs(), kSeries);
    series.dump(c, sim.state(), 0);
    c.barrier();
    if (c.rank() == 0) {
      const std::string base = series.gen_base(0);
      bool removed = false;
      for (const amr::GridDescriptor& g : sim.state().hierarchy.grids()) {
        if (g.level == 0 || removed) continue;
        tb.fs().remove(enzo::subgrid_file_name(base, g.id));
        removed = true;
      }
      EXPECT_TRUE(removed);
      EXPECT_THROW(enzo::inspect_dump(tb.fs(), base), FormatError);
      EXPECT_THROW(svc.open_generation(0), FormatError);
    }
    c.barrier();
  });
}

TEST(QueryIndex, InflatedMpiioHeaderIsAFormatError) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  tb.runtime().run([&](mpi::Comm& c) {
    enzo::MpiIoBackend backend(tb.fs());
    enzo::EnzoSimulation sim(c, workload());
    sim.initialize_from_universe();
    backend.write_dump(c, sim.state(), "inflated");
    c.barrier();
    if (c.rank() == 0) {
      // The header's second u64 is the metadata length.
      ByteWriter w;
      w.u64(std::uint64_t{1} << 62);
      tb.fs().store().write_at("inflated.enzo", 8, w.take());
      tb.fs().drop_caches();
      EXPECT_THROW(query::build_index(tb.fs(), "inflated", 0), FormatError);
    }
    c.barrier();
    enzo::EnzoSimulation fresh(c, workload());
    EXPECT_THROW(backend.read_restart(c, fresh.state(), "inflated"),
                 FormatError);
  });
}

TEST(QueryIndex, BlobWithUnknownDumpFormatIsRejected) {
  std::vector<std::byte> blob = query::GenerationIndex{}.serialize();
  blob[16] = std::byte{9};  // after magic u32, version u32, gen u64
  EXPECT_THROW(query::GenerationIndex::deserialize(blob), FormatError);
}

// ---------------------------------------------------------------------------
// Single-flight failure hand-off: every reader races for one piece of shared
// work, and the reader that claimed it fails.  The failure releases the
// claim and wakes the waiters; each re-checks, and the first to run claims
// the work again.  Nothing else is handed over, and nobody is left blocked.
// ---------------------------------------------------------------------------

TEST(QuerySingleFlight, TornMarkerFailsEveryReader) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  const std::string marker = enzo::marker_path(kSeries, 0);
  std::vector<std::string> errors(kProcs);
  ASSERT_NO_THROW(tb.runtime().run([&](mpi::Comm& c) {
    dump_generation(c, Kind::kMpiIo, tb.fs());
    if (c.rank() == 0) {
      // Half a marker, as a crash in the middle of the commit leaves it.
      std::vector<std::byte> half(enzo::kCommitMarkerBytes / 2);
      tb.fs().store().read_at(marker, 0, half);
      tb.fs().store().create(marker);
      tb.fs().store().write_at(marker, 0, half);
    }
    c.barrier();
    try {
      svc.open_generation(0);
    } catch (const IoError& e) {
      errors[static_cast<std::size_t>(c.rank())] = e.what();
    }
  }));
  for (std::size_t r = 0; r < errors.size(); ++r) {
    EXPECT_NE(errors[r].find("torn commit marker " + marker),
              std::string::npos)
        << "rank " << r << ": '" << errors[r] << "'";
  }
  EXPECT_EQ(svc.index_builds(), 0u);
}

TEST(QuerySingleFlight, TruncatedHdf4SubgridFailsEveryReaderAlike) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  query::Service svc(tb.fs(), kSeries, query::Service::Params{});
  const std::string base = enzo::generation_base(kSeries, 0);
  std::string path;
  std::vector<std::string> errors(kProcs);
  ASSERT_NO_THROW(tb.runtime().run([&](mpi::Comm& c) {
    dump_generation(c, Kind::kHdf4, tb.fs());
    const query::GenerationIndex& ix = svc.open_generation(0);
    amr::GridDescriptor sub;
    for (const amr::GridDescriptor& g : ix.meta.hierarchy.grids()) {
      if (g.level > 0) {
        sub = g;
        break;
      }
    }
    ASSERT_GT(sub.level, 0);
    if (c.rank() == 0) {
      // Cut the subgrid's file inside its first record's header.
      path = enzo::subgrid_file_name(base, sub.id);
      std::vector<std::byte> bytes(8 + 8 + 3);
      tb.fs().store().read_at(path, 0, bytes);
      tb.fs().store().create(path);
      tb.fs().store().write_at(path, 0, bytes);
      tb.fs().drop_caches();
    }
    c.barrier();
    errors[static_cast<std::size_t>(c.rank())] = format_error([&] {
      svc.extract(0, {sub.id, amr::baryon_field_names()[0], {0, 0, 0},
                      sub.dims});
    });
  }));
  ASSERT_FALSE(path.empty());
  EXPECT_NE(errors[0].find(path), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("offset 8"), std::string::npos) << errors[0];
  for (std::size_t r = 1; r < errors.size(); ++r) {
    EXPECT_EQ(errors[r], errors[0]) << "rank " << r;
  }
  EXPECT_EQ(svc.grid_decodes(), 0u);
}

/// Every rank extracts the full root field at once, with the faults in
/// `inj` (if any) armed for the extract.
struct SharedFetchSession {
  std::vector<std::vector<float>> got;
  std::vector<std::string> errors;
  query::GenerationIndex index;
  std::uint64_t demand_fetches = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t shared_waits = 0;
};

SharedFetchSession shared_fetch_session(fault::Injector* inj) {
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kProcs);
  if (inj != nullptr) {
    inj->set_enabled(false);
    tb.fs().attach_fault_hook(inj);
  }
  query::Service::Params qp;
  qp.hints.ds_buffer_size = 4 * KiB;  // several blocks; retry stays off
  query::Service svc(tb.fs(), kSeries, qp);
  SharedFetchSession s;
  s.got.resize(kProcs);
  s.errors.resize(kProcs);
  const query::SubVolumeRequest root{0, amr::baryon_field_names()[0],
                                     {0, 0, 0}, {16, 16, 16}};
  EXPECT_NO_THROW(tb.runtime().run([&](mpi::Comm& c) {
    dump_generation(c, Kind::kMpiIo, tb.fs());
    const query::GenerationIndex& ix = svc.open_generation(0);
    c.barrier();
    if (c.rank() == 0) {
      s.index = ix;
      if (inj != nullptr) inj->set_enabled(true);
    }
    c.barrier();
    const auto me = static_cast<std::size_t>(c.rank());
    try {
      s.got[me] = svc.extract(0, root);
    } catch (const IoError& e) {
      s.errors[me] = e.what();
    }
  }));
  s.demand_fetches = svc.demand_fetches();
  s.fetched_bytes = svc.fetched_bytes();
  s.shared_waits = svc.shared_fetch_waits();
  const query::FieldExtent& e = s.index.field(0, root.field);
  const std::vector<float> want = oracle_extract(tb.fs().store(), e, root);
  for (std::size_t r = 0; r < s.got.size(); ++r) {
    if (s.errors[r].empty()) {
      EXPECT_EQ(s.got[r], want) << "rank " << r;
    }
  }
  return s;
}

TEST(QuerySingleFlight, FailedSharedFetchFailsOnlyItsClaimant) {
  const SharedFetchSession clean = shared_fetch_session(nullptr);
  for (const std::string& err : clean.errors) EXPECT_EQ(err, "");

  // The first read of the dump lands short, so the claimant yields with the
  // block in flight and the other readers queue behind it; its resumed read
  // then fails once, and with retry off the error reaches the claimant.
  fault::FaultPlan plan;
  fault::FaultSpec shorty;
  shorty.kind = fault::FaultKind::kShortRead;
  shorty.path_substr = enzo::generation_base(kSeries, 0);
  shorty.match_writes = false;
  shorty.max_faults = 1;
  plan.specs.push_back(shorty);
  fault::FaultSpec transient = shorty;
  transient.kind = fault::FaultKind::kTransientError;
  plan.specs.push_back(transient);
  fault::Injector inj(plan);
  const SharedFetchSession s = shared_fetch_session(&inj);
  EXPECT_EQ(inj.counters().injected_total(), 2u);

  const auto failed = std::count_if(
      s.errors.begin(), s.errors.end(),
      [](const std::string& err) { return !err.empty(); });
  EXPECT_EQ(failed, 1);
  for (const std::string& err : s.errors) {
    if (!err.empty()) {
      EXPECT_NE(err.find("injected EIO"), std::string::npos) << err;
    }
  }
  // The others waited on the failed fetch, then one of them fetched the
  // block again; only fetches that landed count.
  EXPECT_GE(s.shared_waits, static_cast<std::uint64_t>(kProcs - 1));
  EXPECT_EQ(s.demand_fetches, clean.demand_fetches);
  EXPECT_EQ(s.fetched_bytes, clean.fetched_bytes);
}

}  // namespace
}  // namespace paramrio
