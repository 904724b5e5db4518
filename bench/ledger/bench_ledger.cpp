// Perf ledger — one workload of the end-to-end benchmark, in one process
// (bench/ledger/LEDGER.md has the workload, metric and layer tables).
//
//   bench_ledger --workload <name> --seed <n> [--seconds <t>] [--trace]
//                [--smoke]
//
// An *episode* runs the whole workload from scratch: Testbed, ENZO
// initialisation and the first evolve (set-up), then kGenerations
// generations of timed operations, each fenced by barriers: evolve (from the
// second generation on), checkpoint dump, a closed-loop query phase over the
// new generation, and a cold restore_latest of it.  A run cycles its
// episodes over kUniverses universes whose seeds derive from --seed, and
// stops once every universe ran and the next episode would overrun
// --seconds.  The clump layout a seed draws sets the subgrid count, which
// moves the HDF4/HDF5 read paths by 15-25 % per generation; averaging over
// generations and universes keeps one layout from setting a run's numbers.
//
// Virtual metrics are exact: a universe's repeat episodes must reproduce
// them bit for bit, and the run reports their mean over generations and
// universes (query percentiles pool every request).  Host metrics (set-up,
// and the timed phases summed) are medians over episodes.
//
// With --trace the first episode (universe 0) is followed by a traced twin:
// an obs::Collector in detail mode plus a trace::IoTracer, root spans around
// each dump and restart, and host stopwatches around the calls into each
// layer.  The twin must reproduce the untraced virtual metrics bit for bit;
// its per-layer metrics are exported.
//
// Correctness is checked outside the host-time window: each restore must
// equal every rank's state at that dump, and every query answer's hash must
// equal one computed from an untimed slice of the stored bytes.  Each dump,
// restart and query request is one attempted op; an op that throws or
// mismatches is a failed op.
//
// The fiber engine and scheduler tie-order seed 0 are pinned (the
// PARAMRIO_SCHED_SEED / PARAMRIO_SIM_ENGINE overrides are cleared), so the
// environment cannot move the virtual numbers.  Output: one JSON document on
// stdout; bench/ledger/run_ledger.py turns it into the benchmark's result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "amr/particles_par.hpp"
#include "base/rng.hpp"
#include "enzo/backends.hpp"
#include "enzo/checkpoint.hpp"
#include "enzo/dump_common.hpp"
#include "enzo/simulation.hpp"
#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "pfs/local_disk_fs.hpp"
#include "platform/machine.hpp"
#include "query/service.hpp"
#include "stage/staged_fs.hpp"
#include "trace/io_tracer.hpp"

using namespace paramrio;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kUniverses = 3;
constexpr std::size_t kGenerations = 3;
constexpr int kRequestsPerReader = 32;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of this process so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1.0e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Start a fresh resident-set high-water mark: return freed heap to the OS,
/// then reset the kernel's peak (Linux clear_refs "5"; ru_maxrss follows).
/// Without it the peak would carry the allocator's leftovers from earlier
/// episodes, and jump between two levels from run to run.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Backend { kHdf4, kMpiIo, kHdf5, kPnetcdf };

struct Workload {
  std::string name;
  int nprocs = 64;
  enzo::SimulationConfig config;
  Backend backend = Backend::kMpiIo;
  /// Dumps go through a node-local StagedFs with DrainPolicy::kAsync.
  bool staged = false;
  /// Ranks 0..readers-1 each issue kRequestsPerReader closed-loop requests
  /// per generation.
  int readers = 64;
};

/// bench_scale's rank-curve configuration — 64 root cells per rank, no
/// particles and no compute, so the engine and rank-0 gather dominate — but
/// with 48 clumps instead of 4: with four, the seed's clump layout alone
/// moves the subgrid count (and so every read metric) by a quarter.
enzo::SimulationConfig rank_wall_config(std::uint64_t side) {
  enzo::SimulationConfig c;
  c.root_dims = {side, side, side};
  c.particles_per_cell = 0.0;
  c.n_clumps = 48;
  c.refine.min_box = 2;
  c.compute_per_cell = 0.0;
  return c;
}

std::optional<Workload> make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  w.nprocs = smoke ? 8 : 64;
  const std::uint64_t side = smoke ? 16 : 64;  // AMR16 / the paper's AMR64
  w.config.root_dims = {side, side, side};
  w.readers = smoke ? 8 : 64;
  if (name == "ckpt_mpiio") {
    w.backend = Backend::kMpiIo;
  } else if (name == "ckpt_hdf5") {
    w.backend = Backend::kHdf5;
  } else if (name == "rank_wall_hdf4") {
    const int procs_per_side = smoke ? 4 : 8;
    w.nprocs = procs_per_side * procs_per_side * procs_per_side;
    w.config = rank_wall_config(4 * static_cast<std::uint64_t>(procs_per_side));
    w.backend = Backend::kHdf4;
  } else if (name == "pipeline_query") {
    w.backend = Backend::kPnetcdf;
    w.staged = true;
  } else {
    return std::nullopt;
  }
  return w;
}

std::unique_ptr<enzo::IoBackend> make_backend(Backend b, pfs::FileSystem& fs) {
  switch (b) {
    case Backend::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Backend::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs);
    case Backend::kHdf5:
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs);
    case Backend::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs);
  }
  throw LogicError("bad backend");
}

/// Seed of universe `u` of a run: both SimulationConfig::seed (clump layout,
/// particle sampling) and the query-mix RNG derive from it.
std::uint64_t universe_seed(std::uint64_t run_seed, int u) {
  Rng rng(run_seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(u));
  return rng.next_u64();
}

// ---------------------------------------------------------------------------
// Query mix and its oracle
// ---------------------------------------------------------------------------

enum class Kind { kHot, kBox, kParticles, kMeta };
constexpr int kKinds = 4;
const char* const kKindNames[kKinds] = {"hot", "box", "particles", "meta"};

/// One generated request.  The particle window is a fraction of the ID range
/// so the request list can be generated before the dump exists.
struct Request {
  Kind kind = Kind::kMeta;
  query::SubVolumeRequest volume;  ///< hot / box
  double id_frac = 0.0;            ///< particles: window start in [0, 1)
};

/// Reader `rank`'s closed-loop request list for generation `gen`: 25 % hot
/// density z-slices shared by every reader (four slice positions per
/// generation), 50 % private boxes a quarter of the root side wide of a
/// random field, 15 % particle ID windows of 1/256 of the range, 10 %
/// metadata.
std::vector<Request> reader_requests(const Workload& w, std::uint64_t seed,
                                     std::size_t gen, std::size_t rank) {
  const std::uint64_t n = w.config.root_dims[0];
  const std::uint64_t box = n / 4;
  Rng gen_rng(seed ^ (0x68eb9a1f3c5d7e21ULL * (gen + 1)));
  std::uint64_t hot_z[4];
  for (auto& z : hot_z) z = gen_rng.next_below(n);

  Rng rng(gen_rng.next_u64() + 1000003ULL * (rank + 1));
  const auto& fields = amr::baryon_field_names();
  std::vector<Request> out;
  for (int i = 0; i < kRequestsPerReader; ++i) {
    Request r;
    const double u = rng.next_double();
    if (u < 0.25) {
      r.kind = Kind::kHot;
      r.volume = {0, "density", {hot_z[rng.next_below(4)], 0, 0}, {1, n, n}};
    } else if (u < 0.75) {
      r.kind = Kind::kBox;
      r.volume.field = fields[rng.next_below(fields.size())];
      for (auto& s : r.volume.start) s = rng.next_below(n - box + 1);
      r.volume.count = {box, box, box};
    } else if (u < 0.90) {
      r.kind = Kind::kParticles;
      r.id_frac = rng.next_double();
    } else {
      r.kind = Kind::kMeta;
    }
    out.push_back(std::move(r));
  }
  return out;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_floats(const std::vector<float>& v) {
  return fnv1a(v.data(), v.size() * sizeof(float));
}

/// Hash of every particle array, in kParticleArrays order — the stored
/// byte layout, so the oracle can hash raw slices of the dump.
std::uint64_t hash_particles(const amr::ParticleSet& p) {
  std::uint64_t h = kFnvBasis;
  std::vector<std::byte> buf;
  for (std::size_t a = 0; a < enzo::kNumParticleArrays; ++a) {
    buf.resize(p.size() * enzo::kParticleArrays[a].elem_size);
    if (!buf.empty()) {
      enzo::particle_array_to_bytes(p, a, 0, p.size(), buf.data());
    }
    h = fnv1a(buf.data(), buf.size(), h);
  }
  return h;
}

std::uint64_t hash_meta(double time, std::uint64_t cycle,
                        std::uint64_t n_particles, std::uint64_t grids) {
  std::uint64_t h = fnv1a(&time, sizeof time);
  h = fnv1a(&cycle, sizeof cycle, h);
  h = fnv1a(&n_particles, sizeof n_particles, h);
  return fnv1a(&grids, sizeof grids, h);
}

/// The particle ID window [lo, hi] a request covers: 1/256 of the range.
std::pair<std::uint64_t, std::uint64_t> id_window(
    const query::GenerationIndex& ix, double frac) {
  const std::uint64_t span = ix.id_max - ix.id_min + 1;
  const std::uint64_t width = std::max<std::uint64_t>(1, span / 256);
  const auto lo = ix.id_min + static_cast<std::uint64_t>(
                                  frac * static_cast<double>(span - width));
  return {lo, lo + width - 1};
}

/// Untimed oracle over the stored bytes: each field and particle array is
/// decoded once, then every request is answered by plain slicing.
class QueryOracle {
 public:
  QueryOracle(const stor::ObjectStore& store, const query::GenerationIndex& ix)
      : store_(store), ix_(ix) {}

  std::uint64_t extract(const query::SubVolumeRequest& q) {
    const query::FieldExtent& e = ix_.field(q.grid_id, q.field);
    auto [it, fresh] = fields_.try_emplace({q.grid_id, q.field});
    if (fresh) {
      std::vector<std::byte> raw(e.bytes);
      store_.read_at(e.path, e.offset, raw);
      it->second.resize(e.bytes / sizeof(float));
      std::memcpy(it->second.data(), raw.data(), raw.size());
    }
    const std::vector<float>& cells = it->second;
    std::vector<float> out;
    out.reserve(q.count[0] * q.count[1] * q.count[2]);
    for (std::uint64_t z = 0; z < q.count[0]; ++z) {
      for (std::uint64_t y = 0; y < q.count[1]; ++y) {
        const auto row = static_cast<std::ptrdiff_t>(
            ((q.start[0] + z) * e.dims[1] + q.start[1] + y) * e.dims[2] +
            q.start[2]);
        const auto len = static_cast<std::ptrdiff_t>(q.count[2]);
        out.insert(out.end(), cells.begin() + row, cells.begin() + row + len);
      }
    }
    return hash_floats(out);
  }

  std::uint64_t particles(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t n = ix_.meta.n_particles;
    if (arrays_.empty() && n > 0) {
      for (const query::ParticleExtent& pe : ix_.particles) {
        std::vector<std::byte> raw(n * pe.elem_size);
        store_.read_at(pe.path, pe.offset, raw);
        arrays_.push_back(std::move(raw));
      }
      ids_.resize(n);
      std::memcpy(ids_.data(), arrays_[0].data(), arrays_[0].size());
    }
    const auto first = static_cast<std::uint64_t>(
        std::lower_bound(ids_.begin(), ids_.end(), lo) - ids_.begin());
    const auto last = static_cast<std::uint64_t>(
        std::upper_bound(ids_.begin(), ids_.end(), hi) - ids_.begin());
    std::uint64_t h = kFnvBasis;
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
      const std::uint64_t es = ix_.particles[a].elem_size;
      h = fnv1a(arrays_[a].data() + first * es, (last - first) * es, h);
    }
    return h;
  }

 private:
  const stor::ObjectStore& store_;
  const query::GenerationIndex& ix_;
  std::map<std::pair<std::uint64_t, std::string>, std::vector<float>> fields_;
  std::vector<std::vector<std::byte>> arrays_;
  std::vector<std::uint64_t> ids_;
};

// ---------------------------------------------------------------------------
// One episode
// ---------------------------------------------------------------------------

/// What a rank held when the current generation was dumped.
struct Snapshot {
  double time = 0.0;
  std::uint64_t cycle = 0;
  std::uint64_t grids = 0;
  std::vector<amr::Array3f> fields;
  amr::ParticleSet particles;  ///< sorted by ID
};

struct Answer {
  std::uint64_t hash = 0;
  double latency = 0.0;  ///< virtual seconds, issue -> completion
};

/// Everything an episode measured on the virtual clock (rank 0, barrier to
/// barrier).  Exact: a universe's episodes must compare equal.
struct Virtual {
  std::vector<double> dump_s;     ///< per generation
  std::vector<double> restart_s;  ///< per generation
  double query_window_s = 0.0;  ///< summed open_generation -> last request
  std::uint64_t query_bytes = 0;
  std::vector<double> latency;  ///< every request: generation, reader, order
  std::vector<Kind> kind;

  bool operator==(const Virtual&) const = default;
};

struct Episode {
  int universe = 0;
  bool traced = false;
  double setup_s = 0.0;  ///< Testbed ctor -> end of the first evolve
  double host_s = 0.0;   ///< timed phases summed, oracle work excluded
  double peak_rss_mb = 0.0;  ///< this episode's resident-set high-water
  Virtual v;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;  ///< traced episodes only
};

std::uint64_t dump_payload_bytes(const enzo::SimulationState& s,
                                 std::uint64_t n_particles) {
  std::uint64_t bytes = static_cast<std::uint64_t>(amr::kNumBaryonFields) *
                        s.config.root_cells() * sizeof(float);
  bytes += enzo::particle_payload_bytes(n_particles);
  for (const auto& g : s.hierarchy.grids()) {
    if (g.level == 0) continue;
    bytes += static_cast<std::uint64_t>(amr::kNumBaryonFields) *
             g.cell_count() * sizeof(float);
  }
  return bytes;
}

/// Host stopwatches (rank 0, between the fencing barriers of each phase,
/// summed over generations) and per-rank byte deltas.
struct Stopwatches {
  double testbed = 0.0, init = 0.0, evolve = 0.0, dump = 0.0, restart = 0.0;
  double query = 0.0, index = 0.0, index_virtual = 0.0, hashing = 0.0;
  std::uint64_t payload = 0;
  std::vector<std::uint64_t> dump_written, restart_read;
};

/// Blame of the root span `root`, summed over ranks; the imbalance is the
/// straggler factor of its longest phase.  Retry backoff and token waits are
/// left out: the ledger injects no faults and PVFS has no write tokens, so
/// both are always zero.
void export_blame(const obs::Collector& col, const std::string& root,
                  const std::string& prefix,
                  std::map<std::string, double>& out) {
  const obs::BlameReport r = obs::build_blame(col, root);
  double wall = 0.0, attributed = 0.0;
  for (const obs::RankBlame& rb : r.ranks) {
    wall += rb.wall;
    attributed += rb.attributed;
  }
  const obs::PhaseBlame* longest = nullptr;
  for (const obs::PhaseBlame& ph : r.phases) {
    if (longest == nullptr || ph.time > longest->time) longest = &ph;
  }
  using C = obs::BlameCategory;
  const std::pair<C, const char*> kept[] = {
      {C::kCpu, "cpu"},
      {C::kComm, "comm"},
      {C::kRecvWait, "recv_wait"},
      {C::kIo, "io"},
      {C::kServerQueue, "server_queue"},
      {C::kSettleWait, "settle_wait"},
      {C::kStageDrain, "stage_drain"},
      {C::kUnattributed, "unattributed"}};
  for (const auto& [cat, name] : kept) {
    out[prefix + name + "_s"] = r.blame[static_cast<std::size_t>(cat)];
  }
  out[prefix + "attributed_frac"] = wall > 0.0 ? attributed / wall : 0.0;
  out[prefix + "imbalance"] = longest != nullptr ? longest->imbalance() : 0.0;
}

double hist_ms(const obs::Collector& col, const std::string& name, double p) {
  auto it = col.histograms().find(name);
  return it == col.histograms().end() ? 0.0
                                      : 1.0e3 * it->second.percentile(p);
}

/// Sum counter `name` over every registry scope starting with `prefix`.
double scope_sum(const obs::MetricsRegistry& reg, const std::string& prefix,
                 const std::string& name) {
  double total = 0.0;
  for (const auto& [scope, s] : reg.scopes()) {
    if (scope.compare(0, prefix.size(), prefix) != 0) continue;
    auto it = s.counters.find(name);
    if (it != s.counters.end()) total += static_cast<double>(it->second);
  }
  return total;
}

/// One root span name per generation ("dump.g0", ...): build_blame keeps
/// only a rank's first root of a given name.
std::vector<std::string> root_names(const std::string& op) {
  std::vector<std::string> names;
  for (std::size_t g = 0; g < kGenerations; ++g) {
    names.push_back(op + ".g" + std::to_string(g));
  }
  return names;
}

Episode run_episode(const Workload& w, int universe, std::uint64_t seed,
                    bool traced) {
  Episode ep;
  ep.universe = universe;
  ep.traced = traced;
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const auto t_start = Clock::now();
  Stopwatches sw;

  enzo::SimulationConfig config = w.config;
  config.seed = seed;
  const int P = w.nprocs;
  const std::vector<std::string> dump_roots = root_names("dump");
  const std::vector<std::string> restart_roots = root_names("restart");

  platform::Testbed tb(platform::chiba_pvfs_ethernet(), P, /*perturb_seed=*/0,
                       sim::SchedBackend::kFibers);
  std::unique_ptr<pfs::LocalDiskFs> staging;
  std::unique_ptr<stage::StagedFs> staged;
  pfs::FileSystem* fs = &tb.fs();
  if (w.staged) {
    staging = std::make_unique<pfs::LocalDiskFs>(pfs::LocalDiskFsParams{}, P);
    staged = std::make_unique<stage::StagedFs>(stage::StagedFsParams{},
                                               *staging, tb.fs());
    fs = staged.get();
  }
  query::Service::Params qp;
  qp.hints.ds_buffer_size = 64 * KiB;  // one PVFS stripe per sieve block
  query::Service svc(*fs, "ledger", qp);
  sw.testbed = seconds_since(t_start);

  obs::Collector col;
  trace::IoTracer tracer;
  if (traced) {
    col.set_detail(true);
    obs::attach(&col);
    fs->attach_observer(&tracer);
  }

  // requests[g][r]: reader r's list for generation g.
  const auto readers = static_cast<std::size_t>(std::min(w.readers, P));
  std::vector<std::vector<std::vector<Request>>> requests(kGenerations);
  for (std::size_t g = 0; g < kGenerations; ++g) {
    for (std::size_t r = 0; r < readers; ++r) {
      requests[g].push_back(reader_requests(w, seed, g, r));
    }
  }
  ep.attempted = kGenerations * (2 + readers * kRequestsPerReader);

  const auto nranks = static_cast<std::size_t>(P);
  std::vector<Snapshot> snaps(nranks);
  std::vector<char> restore_bad(kGenerations, 0);
  std::vector<std::vector<std::vector<Answer>>> answers(
      kGenerations, std::vector<std::vector<Answer>>(readers));
  std::vector<double> hash_host(readers, 0.0);
  std::vector<query::GenerationIndex> index(kGenerations);
  std::vector<std::uint64_t> meta_hash(kGenerations, 0);
  sw.dump_written.assign(nranks, 0);
  sw.restart_read.assign(nranks, 0);
  std::uint64_t ops_done = 0;  // rank 0 counts finished dumps and restarts
  Clock::time_point t_setup_end{};
  std::optional<sim::Engine::Result> result;

  try {
    result = tb.runtime().run([&](mpi::Comm& c) {
      const bool root = c.rank() == 0;
      const auto me = static_cast<std::size_t>(c.rank());
      auto mark = [&] { return root ? Clock::now() : Clock::time_point{}; };
      auto backend = make_backend(w.backend, *fs);
      enzo::CheckpointSeries series(*backend, *fs, "ledger");
      if (w.staged) series.set_staging(*staged, stage::DrainPolicy::kAsync);

      // ---- set-up: initialisation and the first evolve ------------------
      auto t = mark();
      enzo::EnzoSimulation sim(c, config);
      sim.initialize_from_universe();
      c.barrier();
      if (root) sw.init = seconds_since(t);
      sim.evolve_cycle();
      c.barrier();
      if (root) t_setup_end = Clock::now();

      for (std::size_t g = 0; g < kGenerations; ++g) {
        if (g > 0) {
          t = mark();
          sim.evolve_cycle();
          c.barrier();
          if (root) sw.evolve += seconds_since(t);
        }

        // ---- dump ------------------------------------------------------
        t = mark();
        const double v0 = c.proc().now();
        const std::uint64_t w0 = c.proc().stats().io_bytes_written;
        {
          obs::Span span(dump_roots[g].c_str(), sim::TimeCategory::kIo);
          series.dump(c, sim.state(), g);
          OBS_SPAN("dump.sync", sim::TimeCategory::kComm);
          c.barrier();
        }
        sw.dump_written[me] += c.proc().stats().io_bytes_written - w0;
        if (root) {
          sw.dump += seconds_since(t);
          ep.v.dump_s.push_back(c.proc().now() - v0);
          ++ops_done;
        }

        // Oracle snapshot (between timed phases).
        Snapshot& snap = snaps[me];
        snap.time = sim.state().time;
        snap.cycle = sim.state().cycle;
        snap.grids = sim.state().hierarchy.grid_count();
        snap.fields = sim.state().my_fields;
        snap.particles = sim.state().my_particles;
        amr::local_sort_by_id(snap.particles);

        // ---- query phase: readers start cold -----------------------------
        if (root) {
          fs->drop_caches();
          tb.fs().drop_caches();
        }
        c.barrier();
        t = mark();
        const double q0 = c.proc().now();
        const std::uint64_t served0 = svc.payload_bytes();
        if (me < readers) {
          const auto t_index = mark();
          const query::GenerationIndex& ix = svc.open_generation(g);
          if (root) {
            sw.index += seconds_since(t_index);
            sw.index_virtual += c.proc().now() - q0;
            index[g] = ix;
          }
          for (const Request& rq : requests[g][me]) {
            Answer a;
            const double r0 = c.proc().now();
            if (rq.kind == Kind::kHot || rq.kind == Kind::kBox) {
              std::vector<float> v = svc.extract(g, rq.volume);
              a.latency = c.proc().now() - r0;
              const auto th = Clock::now();
              a.hash = hash_floats(v);
              hash_host[me] += seconds_since(th);
            } else if (rq.kind == Kind::kParticles) {
              const auto [lo, hi] = id_window(ix, rq.id_frac);
              amr::ParticleSet p = svc.particles(g, lo, hi);
              a.latency = c.proc().now() - r0;
              const auto th = Clock::now();
              a.hash = hash_particles(p);
              hash_host[me] += seconds_since(th);
            } else {
              const enzo::DumpMeta& m = svc.metadata(g);
              a.latency = c.proc().now() - r0;
              a.hash = hash_meta(m.time, m.cycle, m.n_particles,
                                 m.hierarchy.grid_count());
            }
            answers[g][me].push_back(a);
          }
        }
        c.barrier();
        if (root) {
          sw.query += seconds_since(t);
          ep.v.query_window_s += c.proc().now() - q0;
          ep.v.query_bytes += svc.payload_bytes() - served0;
          // Every rank has snapshotted by now: the oracle's view of the dump.
          std::uint64_t n_particles = 0;
          for (const Snapshot& s : snaps) n_particles += s.particles.size();
          sw.payload += dump_payload_bytes(sim.state(), n_particles);
          meta_hash[g] =
              hash_meta(snap.time, snap.cycle, n_particles, snap.grids);
        }

        // ---- cold restart ------------------------------------------------
        if (root) {
          fs->drop_caches();
          tb.fs().drop_caches();
        }
        enzo::EnzoSimulation fresh(c, config);
        c.barrier();
        t = mark();
        const double v2 = c.proc().now();
        const std::uint64_t r0 = c.proc().stats().io_bytes_read;
        {
          obs::Span span(restart_roots[g].c_str(), sim::TimeCategory::kIo);
          series.restore_latest(c, fresh.state(), g);
          OBS_SPAN("restart.sync", sim::TimeCategory::kComm);
          c.barrier();
        }
        sw.restart_read[me] += c.proc().stats().io_bytes_read - r0;
        if (root) {
          sw.restart += seconds_since(t);
          ep.v.restart_s.push_back(c.proc().now() - v2);
          ++ops_done;
        }

        // Restart oracle: exact state, particles compared in ID order.
        enzo::SimulationState& got = fresh.state();
        amr::local_sort_by_id(got.my_particles);
        if (!(got.time == snap.time && got.cycle == snap.cycle &&
              got.my_fields == snap.fields &&
              got.my_particles == snap.particles)) {
          restore_bad[g] = 1;
        }
      }
    });
  } catch (const std::exception& e) {
    ep.errors.push_back(e.what());
  }
  if (traced) {
    fs->attach_observer(nullptr);
    obs::detach();
  }
  ep.peak_rss_mb = peak_rss_mib();

  // ---- ops and oracle checks (untimed) ------------------------------------
  std::uint64_t answered = 0;
  for (const auto& per_gen : answers) {
    for (const auto& a : per_gen) answered += a.size();
  }
  ep.failed = ep.attempted - std::min(ep.attempted, ops_done + answered);
  if (!result) return ep;
  const auto bad_restores = static_cast<std::uint64_t>(
      std::count(restore_bad.begin(), restore_bad.end(), 1));
  if (bad_restores > 0) {
    ep.failed += bad_restores;
    ep.errors.push_back("restore_latest did not reproduce the dumped state");
  }
  std::uint64_t mismatches = 0;
  for (std::size_t g = 0; g < kGenerations; ++g) {
    QueryOracle oracle(fs->store(), index[g]);
    for (std::size_t r = 0; r < readers; ++r) {
      for (std::size_t i = 0; i < answers[g][r].size(); ++i) {
        const Request& rq = requests[g][r][i];
        std::uint64_t want = meta_hash[g];
        if (rq.kind == Kind::kHot || rq.kind == Kind::kBox) {
          want = oracle.extract(rq.volume);
        } else if (rq.kind == Kind::kParticles) {
          const auto [lo, hi] = id_window(index[g], rq.id_frac);
          want = oracle.particles(lo, hi);
        }
        if (answers[g][r][i].hash != want) ++mismatches;
        ep.v.latency.push_back(answers[g][r][i].latency);
        ep.v.kind.push_back(rq.kind);
      }
    }
  }
  if (mismatches > 0) {
    ep.failed += mismatches;
    ep.errors.push_back(std::to_string(mismatches) +
                        " query answers differ from the stored bytes");
  }

  for (double h : hash_host) sw.hashing += h;
  ep.setup_s = seconds_between(t_start, t_setup_end);
  ep.host_s = sw.evolve + sw.dump + (sw.query - sw.hashing) + sw.restart;
  if (!traced) return ep;

  // ---- per-layer export (traced episodes; totals over generations) --------
  auto& L = ep.layers;
  obs::MetricsRegistry& reg = col.registry();
  tb.fs().export_counters(reg);
  tb.runtime().network().export_counters(reg);
  if (staged) {
    staged->export_counters(reg);
    staging->export_counters(reg);
  }

  L["platform.testbed_host_s"] = sw.testbed;
  L["enzo.init_host_s"] = sw.init;
  L["enzo.evolve_host_s"] = sw.evolve;
  L["enzo.dump_host_s"] = sw.dump;
  L["enzo.restart_host_s"] = sw.restart;
  L["enzo.payload_bytes"] = static_cast<double>(sw.payload);

  sim::ProcStats tot;
  for (const sim::ProcStats& s : result->stats) {
    tot.cpu_time += s.cpu_time;
    tot.comm_time += s.comm_time;
    tot.io_time += s.io_time;
    tot.messages_sent += s.messages_sent;
    tot.bytes_sent += s.bytes_sent;
    tot.io_requests += s.io_requests;
    tot.io_bytes_read += s.io_bytes_read;
    tot.io_bytes_written += s.io_bytes_written;
  }
  L["sim.makespan_s"] = result->makespan;
  L["sim.cpu_s"] = tot.cpu_time;
  L["sim.comm_s"] = tot.comm_time;
  L["sim.io_s"] = tot.io_time;
  L["proc.cpu_host_s"] = process_cpu_seconds() - cpu0;
  L["mpi.messages_sent"] = static_cast<double>(tot.messages_sent);
  L["mpi.bytes_sent"] = static_cast<double>(tot.bytes_sent);

  // build_blame scans every span once per rank, so a whole episode (up to
  // 8 M spans on ckpt_hdf5) would take minutes: blame the last generation.
  export_blame(col, dump_roots.back(), "blame.dump.", L);
  export_blame(col, restart_roots.back(), "blame.restart.", L);

  for (const char* name :
       {"collective_ops", "independent_ops", "two_phase_windows",
        "sieve_windows", "cb_aligned_windows", "cb_straddle_windows"}) {
    L[std::string("mpiio.") + name] = scope_sum(reg, "file:", name);
  }
  L["two_phase.window_p50_ms"] = hist_ms(col, "two_phase.window", 50);
  L["two_phase.window_p99_ms"] = hist_ms(col, "two_phase.window", 99);

  for (const char* name :
       {"messages", "bytes", "wire_transfers", "wire_bytes"}) {
    L[std::string("net.") + name] = scope_sum(reg, "net", name);
  }
  L["net.message_p99_ms"] = hist_ms(col, "net.message", 99);

  std::uint64_t dump_written = 0, restart_read = 0;
  for (std::uint64_t b : sw.dump_written) dump_written += b;
  for (std::uint64_t b : sw.restart_read) restart_read += b;
  const auto payload = static_cast<double>(sw.payload);
  L["fs.requests"] = static_cast<double>(tot.io_requests);
  L["fs.bytes_read"] = static_cast<double>(tot.io_bytes_read);
  L["fs.bytes_written"] = static_cast<double>(tot.io_bytes_written);
  L["fs.cache_hit_bytes"] = scope_sum(reg, "fs:", "cache_hit_bytes");
  L["fs.server_requests"] = scope_sum(reg, "fs:", "server_requests");
  L["fs.write_amplification"] = static_cast<double>(dump_written) / payload;
  L["fs.read_amplification"] = static_cast<double>(restart_read) / payload;
  L["pfs.read_p99_ms"] = hist_ms(col, "pfs.read", 99);
  L["pfs.write_p99_ms"] = hist_ms(col, "pfs.write", 99);

  const trace::TraceReport tr = tracer.analyze();
  L["trace.read.requests"] = static_cast<double>(tr.reads.requests);
  L["trace.read.mean_request_B"] = tr.reads.mean_request();
  L["trace.write.requests"] = static_cast<double>(tr.writes.requests);
  L["trace.write.mean_request_B"] = tr.writes.mean_request();
  L["trace.read.sequential_fraction"] = tr.reads.sequential_fraction;
  std::uint64_t small = 0;  // size buckets 0..11 hold requests under 4 KiB
  for (std::size_t b = 0; b < 12; ++b) small += tr.reads.size_histogram[b];
  L["trace.read.small_requests"] = static_cast<double>(small);

  L["stage.staged_bytes"] = scope_sum(reg, "fs:staged", "staged_bytes");
  L["stage.drained_bytes"] = scope_sum(reg, "fs:staged", "drained_bytes");
  L["stage.segments_created"] =
      scope_sum(reg, "fs:staged", "segments_created");
  L["stage.unmapped_read_bytes"] =
      scope_sum(reg, "fs:staged", "unmapped_read_bytes");

  const auto hits = static_cast<double>(svc.cache().hits());
  const auto misses = static_cast<double>(svc.cache().misses());
  const auto served = static_cast<double>(svc.payload_bytes());
  const auto fetched = static_cast<double>(svc.fetched_bytes());
  L["query.index_s"] = sw.index_virtual;
  L["query.index_host_s"] = sw.index;
  L["query.phase_host_s"] = sw.query - sw.hashing;
  L["query.planned_runs"] = static_cast<double>(svc.planned_runs());
  L["query.demand_fetches"] = static_cast<double>(svc.demand_fetches());
  L["query.shared_fetch_waits"] =
      static_cast<double>(svc.shared_fetch_waits());
  L["query.cache_hits"] = hits;
  L["query.cache_misses"] = misses;
  L["query.payload_bytes"] = served;
  L["query.fetched_bytes"] = fetched;
  L["query.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  L["query.fetch_efficiency"] = fetched > 0 ? served / fetched : 0.0;
  L["query.io_fetch_p99_ms"] = hist_ms(col, "query.io.fetch", 99);
  return ep;
}

// ---------------------------------------------------------------------------
// Run summary
// ---------------------------------------------------------------------------

std::string num(double v) { return obs::format_double(v); }

void write_object(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << '"' << k << "\": " << num(v);
    first = false;
  }
  os << "}";
}

void write_array(std::ostream& os, const std::vector<double>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << num(v[i]);
  }
  os << "]";
}

/// The run's end-to-end metrics: virtual ones from each universe's reference
/// episode, host ones (and memory) as medians over the untraced episodes.
std::map<std::string, double> end_to_end(
    const std::vector<Virtual>& refs, const std::vector<double>& setup,
    const std::vector<double>& host, const std::vector<double>& rss) {
  std::vector<double> dump, restart, latency;
  double window = 0.0, bytes = 0.0;
  for (const Virtual& v : refs) {
    dump.push_back(mean(v.dump_s));
    restart.push_back(mean(v.restart_s));
    latency.insert(latency.end(), v.latency.begin(), v.latency.end());
    window += v.query_window_s;
    bytes += static_cast<double>(v.query_bytes);
  }
  return {{"dump_s", mean(dump)},
          {"restart_s", mean(restart)},
          {"query_p99_ms", 1.0e3 * percentile(latency, 99)},
          {"query_MBps", window > 0.0 ? bytes / 1.0e6 / window : 0.0},
          {"setup_s", median(setup)},
          {"host_s", median(host)},
          {"peak_rss_MB", median(rss)}};
}

/// Per-layer metrics: the traced twin's, plus what needs no tracing — the
/// untraced host_s median, and per-kind query latency percentiles pooled over
/// every universe.  Metadata requests are left out: the index answers each in
/// a fixed 1 us.
std::map<std::string, double> per_layer(const std::vector<Episode>& eps,
                                        const std::vector<Virtual>& refs,
                                        const std::vector<double>& host) {
  std::map<std::string, double> out;
  out["host_s"] = median(host);
  std::vector<double> plain;  // the traced twin's universe, untraced
  double traced = 0.0;
  for (const Episode& ep : eps) {
    if (ep.traced) {
      out.insert(ep.layers.begin(), ep.layers.end());
      traced = ep.host_s;
    } else if (ep.universe == 0) {
      plain.push_back(ep.host_s);
    }
  }
  out["obs.trace_overhead_frac"] = traced / median(plain) - 1.0;
  std::vector<double> by_kind[kKinds];
  for (const Virtual& v : refs) {
    for (std::size_t i = 0; i < v.latency.size(); ++i) {
      by_kind[static_cast<int>(v.kind[i])].push_back(v.latency[i]);
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (static_cast<Kind>(k) == Kind::kMeta) continue;
    const std::string base = std::string("query.") + kKindNames[k];
    out[base + "_p50_ms"] = 1.0e3 * percentile(by_kind[k], 50);
    out[base + "_p95_ms"] = 1.0e3 * percentile(by_kind[k], 95);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger --workload "
               "<ckpt_mpiio|ckpt_hdf5|rank_wall_hdf4|pipeline_query> "
               "--seed <n> [--seconds <t>] [--trace] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the schedule: neither CI variable may move the virtual numbers.
  unsetenv("PARAMRIO_SCHED_SEED");
  unsetenv("PARAMRIO_SIM_ENGINE");

  std::string name;
  std::uint64_t seed = 1;
  double budget = 0.0;
  bool trace = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      budget = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  const std::optional<Workload> w = make_workload(name, smoke);
  if (!w) return usage();

  // Every universe at least once; then more rounds while the next episode
  // still fits the budget.  With --trace, universe 0's first episode gets
  // one traced twin.
  const auto t0 = Clock::now();
  std::vector<Episode> eps;
  std::vector<std::optional<Virtual>> refs(kUniverses);
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  auto record = [&](Episode ep) {
    attempted += ep.attempted;
    failed += ep.failed;
    errors.insert(errors.end(), ep.errors.begin(), ep.errors.end());
    std::optional<Virtual>& ref = refs[static_cast<std::size_t>(ep.universe)];
    if (!ref) {
      ref = ep.v;
    } else if (!(ep.v == *ref)) {
      errors.push_back(std::string(ep.traced ? "traced" : "repeat") +
                       " episode of universe " + std::to_string(ep.universe) +
                       " changed the virtual metrics");
    }
    eps.push_back(std::move(ep));
  };
  double longest = 0.0;
  for (int i = 0;; ++i) {
    const int u = i % kUniverses;
    const std::uint64_t useed = universe_seed(seed, u);
    const auto te = Clock::now();
    record(run_episode(*w, u, useed, false));
    if (trace && i == 0) record(run_episode(*w, u, useed, true));
    longest = std::max(longest, seconds_since(te));
    if (i + 1 >= kUniverses && seconds_since(t0) + longest > budget) break;
  }

  std::vector<Virtual> ref_list;
  std::size_t query_samples = 0;
  for (const auto& r : refs) {
    ref_list.push_back(*r);
    query_samples += r->latency.size();
  }
  std::vector<double> setup, host, rss;
  for (const Episode& ep : eps) {
    if (ep.traced) continue;
    setup.push_back(ep.setup_s);
    host.push_back(ep.host_s);
    rss.push_back(ep.peak_rss_mb);
  }

  std::ostringstream os;
  os << "{\"workload\": \"" << w->name << "\", \"seed\": " << seed
     << ", \"smoke\": " << (smoke ? "true" : "false")
     << ", \"nprocs\": " << w->nprocs << ", \"universes\": " << kUniverses
     << ", \"episodes\": " << setup.size()
     << ", \"query_samples\": " << query_samples
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ",\n \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << '"' << obs::json_escape(errors[i]) << '"';
  }
  os << "],\n \"metrics\": ";
  write_object(os, end_to_end(ref_list, setup, host, rss));
  os << ",\n \"samples\": {\"setup_s\": ";
  write_array(os, setup);
  os << ", \"host_s\": ";
  write_array(os, host);
  os << ", \"peak_rss_MB\": ";
  write_array(os, rss);
  os << "}";
  if (trace) {
    os << ",\n \"layers\": ";
    write_object(os, per_layer(eps, ref_list, host));
  }
  os << "}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}
