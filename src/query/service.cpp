#include "query/service.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "enzo/checkpoint.hpp"
#include "fault/retry.hpp"
#include "mpi/io/deferred_scope.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace paramrio::query {

Service::Service(pfs::FileSystem& fs, std::string series_base, Params params)
    : fs_(fs),
      series_base_(std::move(series_base)),
      params_(params),
      cache_(params.cache_capacity) {}

// Descriptors deliberately stay open: the service outlives requests, and
// its file systems are torn down with the testbed.
Service::~Service() = default;

void Service::require_committed(std::uint64_t gen) {
  const std::string marker = enzo::marker_path(series_base_, gen);
  if (!fs_.exists(marker)) {
    throw IoError("query: generation " + std::to_string(gen) + " of '" +
                  series_base_ + "' is not committed");
  }
  int fd = fs_.open(marker, pfs::OpenMode::kRead);
  if (fs_.size(fd) != enzo::kCommitMarkerBytes) {
    fs_.close(fd);
    throw IoError("query: torn commit marker " + marker);
  }
  std::vector<std::byte> raw(enzo::kCommitMarkerBytes);
  timed_read(fd, 0, raw);
  fs_.close(fd);
  if (!enzo::is_commit_marker(raw, gen)) {
    throw IoError("query: invalid commit marker " + marker);
  }
}

const GenerationIndex& Service::open_generation(std::uint64_t gen) {
  return open_state(gen).index;
}

Service::GenState& Service::open_state(std::uint64_t gen) {
  sim::Proc& proc = sim::current_proc();
  GenState& st = gens_[gen];
  while (st.state == GenState::S::kBuilding) {
    st.waiters.push_back(proc.global_rank());
    double t0 = proc.now();
    proc.block();
    obs::record_wait(obs::WaitKind::kServerQueue, t0, proc.now());
  }
  if (st.state == GenState::S::kReady) {
    // The index exists from its ready time on: a reader that waited for it,
    // or merely runs behind the builder's clock, starts there.
    settle_to(st.ready_time);
    return st;
  }
  st.state = GenState::S::kBuilding;
  try {
    require_committed(gen);
    const std::string gbase = enzo::generation_base(series_base_, gen);
    const std::vector<std::byte>* blob =
        catalog_ != nullptr ? catalog_->series_index(series_base_, gen)
                            : nullptr;
    if (blob != nullptr) {
      st.index = GenerationIndex::deserialize(*blob);
      st.decoder.emplace(gbase, st.index.format);
      ++index_loads_;
    } else {
      OBS_SPAN("query.open", sim::TimeCategory::kIo);
      st.decoder.emplace(gbase, enzo::detect_dump_format(fs_, gbase));
      st.index = build_head_index(fs_, *st.decoder, gen);
      ++index_builds_;
      if (catalog_ != nullptr) {
        catalog_->put_series_index(series_base_, gen, st.index.serialize());
      }
    }
  } catch (...) {
    st.state = GenState::S::kEmpty;
    st.decoder.reset();
    wake(st.waiters);
    throw;
  }
  st.state = GenState::S::kReady;
  st.ready_time = proc.now();
  wake(st.waiters);
  return st;
}

const FieldExtent& Service::grid_field(GenState& st, std::uint64_t grid_id,
                                       const std::string& name) {
  sim::Proc& proc = sim::current_proc();
  GenerationIndex& ix = st.index;
  for (;;) {
    if (ix.fields.count(grid_id) > 0 || !ix.meta.hierarchy.has(grid_id)) {
      auto at = st.decoded_at.find(grid_id);
      if (at != st.decoded_at.end()) settle_to(at->second);
      return ix.field(grid_id, name);  // IoError for an unknown grid/field
    }
    const std::string path = st.decoder->step_path(grid_id);
    auto in = st.decoding.find(path);
    if (in != st.decoding.end()) {
      // Another reader is decoding this file: wait for its result instead
      // of reading the same metadata again.
      in->second.push_back(proc.global_rank());
      const double t0 = proc.now();
      proc.block();
      obs::record_wait(obs::WaitKind::kServerQueue, t0, proc.now());
      continue;  // re-check: decoded, or the decode failed and we take over
    }
    st.decoding.emplace(path, std::vector<int>{});
    std::vector<std::uint64_t> added;
    try {
      OBS_SPAN("query.decode", sim::TimeCategory::kIo);
      OpenPath& op = open_path(path);
      added = st.decoder->step(
          ix, grid_id, op.size,
          [&](std::uint64_t off, std::span<std::byte> out) {
            timed_read(op.fd, off, out);
          });
    } catch (...) {
      auto node = st.decoding.extract(path);
      wake(node.mapped());
      throw;
    }
    for (std::uint64_t id : added) st.decoded_at[id] = proc.now();
    grid_decodes_ += added.size();
    auto node = st.decoding.extract(path);
    wake(node.mapped());
  }
}

void Service::settle_to(double ready) {
  sim::Proc& proc = sim::current_proc();
  const double t0 = proc.now();
  if (ready <= t0) return;
  proc.clock_at_least(ready, sim::TimeCategory::kIo);
  obs::record_wait(obs::WaitKind::kSettleWait, t0, ready);
}

void Service::wake(std::vector<int>& waiters) {
  if (waiters.empty()) return;
  sim::Engine& eng = sim::current_proc().engine();
  for (int r : waiters) eng.signal(r);
  waiters.clear();
}

Service::OpenPath& Service::open_path(const std::string& path) {
  auto it = paths_.find(path);
  if (it != paths_.end()) return it->second;
  // The open is timed and may yield; another proc can race us here, so
  // re-check before publishing the descriptor.
  OpenPath op;
  op.fd = fs_.open(path, pfs::OpenMode::kRead);
  op.size = fs_.size(op.fd);
  auto [it2, inserted] = paths_.emplace(path, op);
  if (!inserted) fs_.close(op.fd);
  return it2->second;
}

void Service::timed_read(int fd, std::uint64_t offset,
                         std::span<std::byte> out) {
  fault::transfer(params_.hints.retry, io_stats_, out.size(),
                  [&](std::uint64_t done) {
                    return fs_.read_at(fd, offset + done, out.subspan(done));
                  });
}

std::vector<std::byte> Service::fetch_block(const std::string& path,
                                            std::uint64_t block_off,
                                            std::uint64_t len) {
  OpenPath& op = open_path(path);
  sim::Proc& proc = sim::current_proc();
  std::vector<std::byte> buf(len);
  double t0 = proc.now();
  {
    OBS_SPAN("query.io", sim::TimeCategory::kIo);
    timed_read(op.fd, block_off, buf);
  }
  obs::latency_sample("query.io.fetch", proc.now() - t0);
  fetched_bytes_ += len;
  return buf;
}

SharedCache::BlockData Service::cached_block(const std::string& path,
                                             std::uint64_t block_off,
                                             std::uint64_t len,
                                             ExtractPlan* plan) {
  sim::Proc& proc = sim::current_proc();
  SharedCache::Key key{path, block_off};
  for (;;) {
    if (auto found = cache_.lookup(key)) {
      if (plan != nullptr) ++plan->cache_hits;
      // A prefetch may publish a block before its shadow-clock fetch
      // completes; pay only the un-hidden remainder.
      settle_to(found->ready_time);
      return found->data;
    }
    auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Another reader is already fetching this block: wait for its
      // result instead of duplicating the physical read.
      in->second.push_back(proc.global_rank());
      ++shared_fetch_waits_;
      if (plan != nullptr) ++plan->shared_waits;
      double t0 = proc.now();
      proc.block();
      obs::record_wait(obs::WaitKind::kServerQueue, t0, proc.now());
      continue;  // re-check: hit, or fetch failed and we take over
    }
    inflight_.emplace(key, std::vector<int>{});
    SharedCache::BlockData data;
    try {
      data = std::make_shared<const std::vector<std::byte>>(
          fetch_block(path, block_off, len));
    } catch (...) {
      auto node = inflight_.extract(key);
      wake(node.mapped());
      throw;
    }
    ++demand_fetches_;
    if (plan != nullptr) ++plan->cache_misses;
    cache_.insert(key, data, proc.now());
    auto node = inflight_.extract(key);
    wake(node.mapped());
    return data;
  }
}

void Service::execute_runs(const std::string& path,
                           const std::vector<PlannedRun>& runs,
                           std::span<std::byte> out, ExtractPlan* plan) {
  if (runs.empty()) return;
  if (plan != nullptr) plan->runs += runs.size();
  planned_runs_ += runs.size();

  // Sieving off: exact per-run reads, no cache (there is no sieve buffer
  // to share).
  if (!params_.hints.data_sieving_reads) {
    for (const PlannedRun& r : runs) {
      OBS_SPAN("query.io", sim::TimeCategory::kIo);
      timed_read(open_path(path).fd, r.file_off,
                 out.subspan(r.out_off, r.bytes));
      fetched_bytes_ += r.bytes;
    }
    return;
  }

  const std::uint64_t bs =
      std::max<std::uint64_t>(params_.hints.ds_buffer_size, 1);
  OpenPath& op = open_path(path);

  // Ordered distinct sieve blocks touched by the (ascending) runs.
  std::vector<std::uint64_t> blocks;
  for (const PlannedRun& r : runs) {
    const std::uint64_t b0 = r.file_off / bs;
    const std::uint64_t b1 = (r.file_off + r.bytes - 1) / bs;
    for (std::uint64_t b = b0; b <= b1; ++b) {
      if (blocks.empty() || blocks.back() != b) blocks.push_back(b);
    }
  }
  if (plan != nullptr) plan->blocks += blocks.size();

  std::size_t run_i = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::uint64_t boff = blocks[i] * bs;
    const std::uint64_t blen = std::min(bs, op.size - boff);
    SharedCache::BlockData data;
    std::vector<std::byte> scratch;
    const std::byte* src = nullptr;
    if (params_.cache_enabled) {
      data = cached_block(path, boff, blen, plan);
      src = data->data();
      if (params_.hints.overlap && i + 1 < blocks.size()) {
        // Prefetch the next planned block on the shadow clock while this
        // one is consumed.  Deferred code never yields, so the
        // probe-fetch-insert sequence is atomic wrt other readers.
        const std::uint64_t noff = blocks[i + 1] * bs;
        SharedCache::Key nkey{path, noff};
        if (!cache_.contains(nkey) &&
            inflight_.find(nkey) == inflight_.end()) {
          sim::Proc& proc = sim::current_proc();
          mpi::io::DeferredScope ds(proc);
          auto bytes = fetch_block(path, noff, std::min(bs, op.size - noff));
          double t_done = ds.end();
          cache_.insert(
              nkey,
              std::make_shared<const std::vector<std::byte>>(
                  std::move(bytes)),
              t_done);
          ++prefetches_;
          if (plan != nullptr) ++plan->prefetches;
        }
      }
    } else {
      scratch = fetch_block(path, boff, blen);
      src = scratch.data();
    }
    // Copy every run piece intersecting this block into the result.
    OBS_SPAN("query.cache", sim::TimeCategory::kCpu);
    for (std::size_t r = run_i; r < runs.size(); ++r) {
      const PlannedRun& run = runs[r];
      if (run.file_off >= boff + blen) break;
      const std::uint64_t lo = std::max(run.file_off, boff);
      const std::uint64_t hi = std::min(run.file_off + run.bytes, boff + blen);
      if (hi <= lo) continue;
      std::memcpy(out.data() + run.out_off + (lo - run.file_off),
                  src + (lo - boff), hi - lo);
      charge_copy(hi - lo);
      if (r == run_i && run.file_off + run.bytes <= boff + blen) ++run_i;
    }
  }
}

void Service::charge_copy(std::uint64_t bytes) {
  if (bytes == 0) return;
  sim::current_proc().advance(
      static_cast<double>(bytes) / params_.memory_bandwidth,
      sim::TimeCategory::kCpu);
}

std::vector<Service::PlannedRun> Service::plan_subvolume(
    const FieldExtent& e, const SubVolumeRequest& req,
    std::uint64_t* span_out) {
  for (std::size_t a = 0; a < 3; ++a) {
    if (req.count[a] == 0 || req.start[a] + req.count[a] > e.dims[a]) {
      throw IoError("query: sub-volume out of bounds for field '" +
                    req.field + "' of grid " + std::to_string(req.grid_id));
    }
  }
  const std::uint64_t dy = e.dims[1];
  const std::uint64_t dx = e.dims[2];
  std::vector<PlannedRun> runs;
  std::uint64_t out_off = 0;
  for (std::uint64_t z = 0; z < req.count[0]; ++z) {
    for (std::uint64_t y = 0; y < req.count[1]; ++y) {
      const std::uint64_t elem =
          ((req.start[0] + z) * dy + (req.start[1] + y)) * dx + req.start[2];
      const std::uint64_t foff = e.offset + elem * sizeof(float);
      const std::uint64_t bytes = req.count[2] * sizeof(float);
      if (!runs.empty() &&
          runs.back().file_off + runs.back().bytes == foff) {
        runs.back().bytes += bytes;
      } else {
        runs.push_back(PlannedRun{foff, bytes, out_off});
      }
      out_off += bytes;
    }
  }
  if (span_out != nullptr) {
    *span_out = runs.back().file_off + runs.back().bytes -
                runs.front().file_off;
  }
  return runs;
}

std::vector<float> Service::extract(std::uint64_t gen,
                                    const SubVolumeRequest& req,
                                    ExtractPlan* plan_out) {
  sim::Proc& proc = sim::current_proc();
  const double t0 = proc.now();
  const FieldExtent& e = grid_field(open_state(gen), req.grid_id, req.field);
  ExtractPlan plan;
  std::vector<PlannedRun> runs;
  {
    OBS_SPAN("query.plan", sim::TimeCategory::kCpu);
    runs = plan_subvolume(e, req, &plan.span_bytes);
    // Planning is index arithmetic: a fixed overhead plus a few ns/run.
    proc.advance(us(1) + 1.0e-8 * static_cast<double>(runs.size()),
                 sim::TimeCategory::kCpu);
  }
  std::vector<float> result(req.count[0] * req.count[1] * req.count[2]);
  auto out = std::as_writable_bytes(std::span(result));
  plan.payload_bytes = out.size();
  execute_runs(e.path, runs, out, &plan);
  payload_bytes_ += out.size();
  ++extracts_;
  obs::latency_sample("query.extract", proc.now() - t0);
  if (plan_out != nullptr) *plan_out = plan;
  return result;
}

amr::ParticleSet Service::particles(std::uint64_t gen, std::uint64_t id_lo,
                                    std::uint64_t id_hi,
                                    ExtractPlan* plan_out) {
  sim::Proc& proc = sim::current_proc();
  const double t0 = proc.now();
  const GenerationIndex& ix = open_generation(gen);
  ExtractPlan plan;
  amr::ParticleSet set;
  const std::uint64_t n = ix.meta.n_particles;
  auto finish = [&] {
    ++particle_queries_;
    obs::latency_sample("query.particles", proc.now() - t0);
    if (plan_out != nullptr) *plan_out = plan;
  };
  if (n == 0 || id_lo > id_hi || id_hi < ix.id_min || id_lo > ix.id_max) {
    finish();
    return set;
  }

  // The sample ladder bounds the ID window we must actually read.
  std::uint64_t win_lo = 0;
  std::uint64_t win_hi = n;
  {
    OBS_SPAN("query.plan", sim::TimeCategory::kCpu);
    auto lo_it = std::upper_bound(
        ix.id_samples.begin(), ix.id_samples.end(), id_lo,
        [](std::uint64_t v, const IdSample& s) { return v < s.id; });
    if (lo_it != ix.id_samples.begin()) win_lo = std::prev(lo_it)->index;
    auto hi_it = std::lower_bound(
        ix.id_samples.begin(), ix.id_samples.end(), id_hi,
        [](const IdSample& s, std::uint64_t v) { return s.id < v; });
    if (hi_it != ix.id_samples.end()) {
      win_hi = std::min<std::uint64_t>(n, hi_it->index + 1);
    }
    proc.advance(us(1), sim::TimeCategory::kCpu);
  }

  // Read the ID window (through the sieve/cache machinery) and binary
  // search the exact [first, last) index range.
  const ParticleExtent& ids = ix.particles[0];
  const std::uint64_t win = win_hi - win_lo;
  std::vector<std::byte> idbuf(win * sizeof(std::uint64_t));
  execute_runs(ids.path,
               {PlannedRun{ids.offset + win_lo * sizeof(std::uint64_t),
                           idbuf.size(), 0}},
               idbuf, &plan);
  std::vector<std::uint64_t> win_ids(win);
  std::memcpy(win_ids.data(), idbuf.data(), idbuf.size());
  const std::uint64_t first =
      win_lo + static_cast<std::uint64_t>(
                   std::lower_bound(win_ids.begin(), win_ids.end(), id_lo) -
                   win_ids.begin());
  const std::uint64_t last =
      win_lo + static_cast<std::uint64_t>(
                   std::upper_bound(win_ids.begin(), win_ids.end(), id_hi) -
                   win_ids.begin());
  const std::uint64_t count = last - first;
  set.resize(count);
  if (count > 0) {
    for (std::size_t a = 0; a < ix.particles.size(); ++a) {
      const ParticleExtent& pe = ix.particles[a];
      std::vector<std::byte> buf(count * pe.elem_size);
      execute_runs(pe.path,
                   {PlannedRun{pe.offset + first * pe.elem_size, buf.size(),
                               0}},
                   buf, &plan);
      enzo::particle_array_from_bytes(set, a, count, buf.data());
    }
  }
  plan.payload_bytes = enzo::particle_payload_bytes(count);
  payload_bytes_ += plan.payload_bytes;
  finish();
  return set;
}

const enzo::DumpMeta& Service::metadata(std::uint64_t gen) {
  sim::Proc& proc = sim::current_proc();
  const double t0 = proc.now();
  const GenerationIndex& ix = open_generation(gen);
  proc.advance(us(1), sim::TimeCategory::kCpu);
  ++metadata_queries_;
  obs::latency_sample("query.metadata", proc.now() - t0);
  return ix.meta;
}

std::vector<std::byte> Service::attribute(std::uint64_t gen,
                                          const std::string& name) {
  sim::Proc& proc = sim::current_proc();
  const double t0 = proc.now();
  const GenerationIndex& ix = open_generation(gen);
  auto it = ix.attributes.find(name);
  if (it == ix.attributes.end()) {
    throw IoError("query: generation " + std::to_string(gen) +
                  " has no attribute '" + name + "'");
  }
  charge_copy(it->second.size());
  ++metadata_queries_;
  obs::latency_sample("query.metadata", proc.now() - t0);
  return it->second;
}

void Service::export_counters(obs::MetricsRegistry& reg) const {
  const std::string scope = "query";
  reg.add(scope, "extracts", extracts_);
  reg.add(scope, "particle_queries", particle_queries_);
  reg.add(scope, "metadata_queries", metadata_queries_);
  reg.add(scope, "planned_runs", planned_runs_);
  reg.add(scope, "payload_bytes", payload_bytes_);
  reg.add(scope, "fetched_bytes", fetched_bytes_);
  reg.add(scope, "demand_fetches", demand_fetches_);
  reg.add(scope, "index_builds", index_builds_);
  reg.add_nonzero(scope, "index_loads", index_loads_);
  reg.add_nonzero(scope, "grid_decodes", grid_decodes_);
  reg.add_nonzero(scope, "io_retries", io_stats_.retries);
  reg.add_nonzero(scope, "prefetches", prefetches_);
  reg.add_nonzero(scope, "shared_fetch_waits", shared_fetch_waits_);
  if (params_.cache_enabled) {
    reg.add(scope, "cache_hits", cache_.hits());
    reg.add(scope, "cache_misses", cache_.misses());
    reg.add(scope, "cache_hit_bytes", cache_.hit_bytes());
    reg.add(scope, "cache_inserted_bytes", cache_.inserted_bytes());
    reg.add_nonzero(scope, "cache_evictions", cache_.evictions());
  }
}

std::string format_plan(const ExtractPlan& plan) {
  std::ostringstream os;
  os << "plan: " << plan.runs << " run(s), " << plan.blocks
     << " sieve block(s), payload "
     << static_cast<double>(plan.payload_bytes) / 1.0e6 << " MB, span "
     << static_cast<double>(plan.span_bytes) / 1.0e6 << " MB\n";
  os << "cache: " << plan.cache_hits << " hit(s), " << plan.cache_misses
     << " fetch(es), " << plan.shared_waits << " shared wait(s), "
     << plan.prefetches << " prefetch(es)\n";
  return os.str();
}

}  // namespace paramrio::query
