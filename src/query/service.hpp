// query::Service — a read-only query layer over committed CheckpointSeries
// generations, serving many concurrent reader procs (ROADMAP item 3).
//
// Three request shapes:
//   * extract()   — a sub-volume of one field of one grid, planned against
//                   the GenerationIndex into coalesced byte runs;
//   * particles() — all particles with IDs in [id_lo, id_hi], located via
//                   the index's ID sample ladder + binary search (arrays
//                   are stored sorted by ID on every backend);
//   * metadata()/attribute() — hierarchy/attribute lookups served entirely
//                   from the index, no data-region I/O.
//
// The index of a generation is built once, head first: open_generation
// decodes the dump's head (attributes, root grid, particles, ID ladder),
// and extract() decodes an HDF4 or HDF5 subgrid's metadata the first time
// a request touches that grid.  Metadata reads a request never needs are
// never issued.
//
// The perf core (the paper's read-side optimizations, aimed at N readers):
//   * planning: row runs of the requested sub-volume are coalesced; whole
//     rows/planes collapse to single runs ("query.plan", CPU);
//   * data sieving: runs are fetched as whole Hints::ds_buffer_size-aligned
//     blocks — one large read instead of many small ones ("query.io", IO);
//   * shared cache: blocks live in one SharedCache serving every reader
//     proc; a hot region costs ~1 physical fetch instead of N.  A reader
//     that misses while another proc is already fetching the same block
//     *blocks* on it rather than duplicating the fetch (the single-flight
//     that also serves index builds and subgrid decodes), so with ample
//     capacity the physical fetch count equals the distinct-block count
//     regardless of schedule — a determinism lever the tests assert on.
//     Hits pay a memory-bandwidth copy ("query.cache", CPU);
//   * prefetch overlap: with Hints::overlap, the next planned block is
//     fetched under the PR 5 shadow-clock deferral while the current one
//     is consumed; a reader arriving before the prefetch completes settles
//     to its ready time (recorded as a settle wait).
//
// Faults compose: transient I/O errors and short reads on the underlying
// file system (including a StagedFs staging tier) are absorbed within
// Hints::retry, with backoff charged on the virtual clock.  Results are
// byte-identical across backends, schedule seeds, engine backends, and
// cache on/off — the oracle tests' core claim.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "amr/grid.hpp"
#include "mdms/catalog.hpp"
#include "mpi/io/file.hpp"
#include "obs/registry.hpp"
#include "pfs/filesystem.hpp"
#include "query/cache.hpp"
#include "query/index.hpp"

namespace paramrio::query {

/// A sub-volume of one field of one grid; start/count are (z, y, x) cells
/// within the grid's own extent.
struct SubVolumeRequest {
  std::uint64_t grid_id = 0;
  std::string field;
  std::array<std::uint64_t, 3> start{};
  std::array<std::uint64_t, 3> count{};
};

/// What a request cost, for callers that want the plan/cache report.
struct ExtractPlan {
  std::uint64_t runs = 0;           ///< coalesced byte runs
  std::uint64_t payload_bytes = 0;  ///< bytes returned to the caller
  std::uint64_t span_bytes = 0;     ///< file span first..last requested byte
  std::uint64_t blocks = 0;         ///< sieve blocks touched
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;   ///< blocks this request fetched itself
  std::uint64_t shared_waits = 0;   ///< blocks waited on another's fetch
  std::uint64_t prefetches = 0;     ///< blocks fetched ahead under overlap
};

struct ServiceParams {
  /// ds_buffer_size sizes the sieve blocks; retry absorbs transient
  /// faults; overlap enables next-block prefetch.
  mpi::io::Hints hints;
  bool cache_enabled = true;
  std::uint64_t cache_capacity = 256 * MiB;
  /// Copy-out rate for bytes served from the shared cache and assembled
  /// into results (the serving node's memory bandwidth).
  double memory_bandwidth = mb_per_s(300);
};

class Service {
 public:
  using Params = ServiceParams;

  /// Serves the series whose generations live under "<series_base>.g<gen>"
  /// on `fs` (the naming CheckpointSeries uses).  `fs` must outlive the
  /// service.
  Service(pfs::FileSystem& fs, std::string series_base, Params params = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Persist/load generation indexes through `catalog` (not owned): open
  /// tries the catalog first and registers freshly built indexes back.
  void attach_catalog(mdms::Catalog* catalog) { catalog_ = catalog; }

  /// The index for generation `gen`, building it (timed) on first open.
  /// Only one proc builds; concurrent openers block until it is ready, and
  /// every opener's clock moves forward to the build's completion time.
  /// The build decodes the dump's head only (build_head_index): the index
  /// holds the root grid, the particles and the subgrids decoded so far, so
  /// list grids from meta.hierarchy, not from `fields`.  Throws IoError if
  /// the generation is not committed, FormatError for a malformed head or
  /// a missing HDF4 subgrid file.
  const GenerationIndex& open_generation(std::uint64_t gen);

  /// Sub-volume extract: returns count[0]*count[1]*count[2] floats in
  /// row-major (z, y, x) order.  The first request that touches a subgrid
  /// decodes its metadata (one decode per grid: concurrent requests for it
  /// wait and resume at its completion time); a malformed subgrid throws
  /// FormatError here while the other grids keep serving.
  std::vector<float> extract(std::uint64_t gen, const SubVolumeRequest& req,
                             ExtractPlan* plan_out = nullptr);

  /// All particles with IDs in [id_lo, id_hi] (inclusive), every array
  /// filled, in ascending ID order.
  amr::ParticleSet particles(std::uint64_t gen, std::uint64_t id_lo,
                             std::uint64_t id_hi,
                             ExtractPlan* plan_out = nullptr);

  const enzo::DumpMeta& metadata(std::uint64_t gen);
  /// Attribute blob by name; throws IoError if absent.
  std::vector<std::byte> attribute(std::uint64_t gen,
                                   const std::string& name);

  const std::string& series_base() const { return series_base_; }
  const Params& params() const { return params_; }
  const SharedCache& cache() const { return cache_; }

  std::uint64_t extracts() const { return extracts_; }
  std::uint64_t particle_queries() const { return particle_queries_; }
  std::uint64_t metadata_queries() const { return metadata_queries_; }
  std::uint64_t planned_runs() const { return planned_runs_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// Bytes physically fetched from the file system (timed reads).
  std::uint64_t fetched_bytes() const { return fetched_bytes_; }
  /// Cache-mode block fetches this service performed itself (with ample
  /// capacity this equals the distinct-block count, schedule-invariantly).
  std::uint64_t demand_fetches() const { return demand_fetches_; }
  std::uint64_t io_retries() const { return io_stats_.retries; }
  std::uint64_t prefetches() const { return prefetches_; }
  std::uint64_t shared_fetch_waits() const { return shared_fetch_waits_; }
  std::uint64_t index_builds() const { return index_builds_; }
  std::uint64_t index_loads() const { return index_loads_; }
  /// Subgrids whose metadata a request decoded after the index was opened.
  std::uint64_t grid_decodes() const { return grid_decodes_; }

  /// Counters under scope "query" (requests, bytes, cache, index).
  void export_counters(obs::MetricsRegistry& reg) const;

 private:
  /// One contiguous byte run of a request: file bytes [file_off,
  /// file_off + bytes) land at [out_off, out_off + bytes) of the result.
  struct PlannedRun {
    std::uint64_t file_off = 0;
    std::uint64_t bytes = 0;
    std::uint64_t out_off = 0;
  };

  /// Keys whose work a proc has claimed -> the global ranks waiting for
  /// it, in arrival order (see single_flight).
  template <typename Key>
  using Flights = std::map<Key, std::vector<int>>;

  /// An opened generation.
  struct GenState {
    GenerationIndex index;
    double ready_time = 0.0;  ///< the builder's clock when it finished
    /// Adds the subgrids the head leaves out, one step at a time.
    std::optional<enzo::DumpDecoder> decoder;
    /// Step files with a decode in flight: one scan per HDF4 subgrid file,
    /// one HDF5 chain walker at a time.
    Flights<std::string> decoding;
    /// Grid id -> the decoding proc's clock when the grid was added.
    std::map<std::uint64_t, double> decoded_at;
  };

  struct OpenPath {
    int fd = -1;
    std::uint64_t size = 0;
  };

  /// Until `ready()` returns non-null, run `work` for `key` unless another
  /// proc already is; otherwise call `on_wait`, block until it is done and
  /// check again (see service.cpp).
  template <typename Key, typename Ready, typename Work, typename OnWait>
  auto single_flight(Flights<Key>& flights, const Key& key, Ready ready,
                     Work work, OnWait on_wait);

  /// open_generation's state for `gen`, built (or waited for) if needed.
  GenState& open_state(std::uint64_t gen);
  void require_committed(std::uint64_t gen);

  /// Field `name` of grid `grid_id`, decoding the grid's metadata first if
  /// no request has touched it yet (timed, retrying within hints.retry).
  const FieldExtent& grid_field(GenState& st, std::uint64_t grid_id,
                                const std::string& name);
  OpenPath& open_path(const std::string& path);

  /// Plan a (z, y, x) sub-volume of `e` into coalesced runs.
  std::vector<PlannedRun> plan_subvolume(const FieldExtent& e,
                                         const SubVolumeRequest& req,
                                         std::uint64_t* span_out);

  /// Execute runs (ascending file_off) against `path`, assembling into
  /// `out`; sieved into blocks, cached, deduplicated, prefetched per the
  /// service params.  Fills plan counters if given.
  void execute_runs(const std::string& path,
                    const std::vector<PlannedRun>& runs,
                    std::span<std::byte> out, ExtractPlan* plan);

  /// Fetch one whole block [block_off, block_off + len) of `path` (timed,
  /// retrying within hints.retry).
  std::vector<std::byte> fetch_block(const std::string& path,
                                     std::uint64_t block_off,
                                     std::uint64_t len);

  /// Obtain a block through the shared cache: hit, wait-for-inflight, or
  /// fetch-and-publish.  Returns the block's bytes.
  SharedCache::BlockData cached_block(const std::string& path,
                                      std::uint64_t block_off,
                                      std::uint64_t len, ExtractPlan* plan);

  /// Timed read of exactly out.size() bytes, absorbing short reads and
  /// (within hints.retry) transient errors.
  void timed_read(int fd, std::uint64_t offset, std::span<std::byte> out);

  void charge_copy(std::uint64_t bytes);

  pfs::FileSystem& fs_;
  std::string series_base_;
  Params params_;
  mdms::Catalog* catalog_ = nullptr;

  SharedCache cache_;
  std::map<std::uint64_t, GenState> gens_;  ///< generations opened so far
  Flights<std::uint64_t> opening_;          ///< generations being opened
  std::map<std::string, OpenPath> paths_;
  Flights<SharedCache::Key> inflight_;  ///< blocks being fetched

  std::uint64_t extracts_ = 0;
  std::uint64_t particle_queries_ = 0;
  std::uint64_t metadata_queries_ = 0;
  std::uint64_t planned_runs_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t fetched_bytes_ = 0;
  std::uint64_t demand_fetches_ = 0;
  fault::RetryStats io_stats_;  ///< timed_read's transfers
  std::uint64_t prefetches_ = 0;
  std::uint64_t shared_fetch_waits_ = 0;
  std::uint64_t index_builds_ = 0;
  std::uint64_t index_loads_ = 0;
  std::uint64_t grid_decodes_ = 0;
};

/// Render a plan + cache report (the visualization example's output).
std::string format_plan(const ExtractPlan& plan);

}  // namespace paramrio::query
