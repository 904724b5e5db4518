#include "query/service.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "enzo/checkpoint.hpp"
#include "fault/retry.hpp"
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

// The single-flight behind every shared wait in the service: a
// generation's index build, a step file's metadata decode, a cache block's
// fetch.  Until `ready()` returns a result (a non-null pointer), the
// calling proc claims `key` and runs `work`, unless another proc already
// holds the claim: then it joins the key's waiters (`on_wait` counts it),
// blocks until the claimant is done, recorded as a server-queue wait, and
// checks again.  `work` publishes what it made where `ready()` looks, and
// may also return it.  Whether it returns or throws, the claim is then
// dropped and the waiters are woken in arrival order.  A failure hands
// over nothing but the claim: the first waiter to run after it does the
// work again.
template <typename Key, typename Ready, typename Work, typename OnWait>
auto Service::single_flight(Flights<Key>& flights, const Key& key,
                            Ready ready, Work work, OnWait on_wait) {
  sim::Proc& proc = sim::current_proc();
  for (;;) {
    if (auto r = ready()) return r;
    if (auto in = flights.find(key); in != flights.end()) {
      in->second.push_back(proc.global_rank());
      on_wait();
      const double t0 = proc.now();
      proc.block();
      obs::record_wait(obs::WaitKind::kServerQueue, t0, proc.now());
      continue;
    }
    flights.emplace(key, std::vector<int>{});
    struct Release {
      Flights<Key>& flights;
      const Key& key;
      ~Release() {
        auto node = flights.extract(key);
        sim::Engine& eng = sim::current_proc().engine();
        for (int r : node.mapped()) eng.signal(r);
      }
    } release{flights, key};
    if (auto r = work()) return r;
  }
}

Service::GenState& Service::open_state(std::uint64_t gen) {
  return *single_flight(
      opening_, gen,
      [&]() -> GenState* {
        auto it = gens_.find(gen);
        if (it == gens_.end()) return nullptr;
        // The index exists from its ready time on: a reader that waited
        // for it, or merely runs behind the builder's clock, starts there.
        obs::settle_to(it->second.ready_time, obs::WaitKind::kSettleWait);
        return &it->second;
      },
      [&]() -> GenState* {
        require_committed(gen);
        GenState st;
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
            catalog_->put_series_index(series_base_, gen,
                                       st.index.serialize());
          }
        }
        st.ready_time = sim::current_proc().now();
        return &gens_.emplace(gen, std::move(st)).first->second;
      },
      [] {});
}

const FieldExtent& Service::grid_field(GenState& st, std::uint64_t grid_id,
                                       const std::string& name) {
  GenerationIndex& ix = st.index;
  // Decoded, or not in the hierarchy (ix.field then names what is
  // missing); usable from the time its decode landed.
  const auto decoded = [&]() -> const FieldExtent* {
    if (ix.fields.count(grid_id) == 0 && ix.meta.hierarchy.has(grid_id)) {
      return nullptr;
    }
    auto at = st.decoded_at.find(grid_id);
    if (at != st.decoded_at.end()) {
      obs::settle_to(at->second, obs::WaitKind::kSettleWait);
    }
    return &ix.field(grid_id, name);  // IoError for an unknown grid/field
  };
  if (const FieldExtent* e = decoded()) return *e;
  // A reader whose step file another reader is decoding waits for that
  // result instead of reading the same metadata again.
  const std::string path = st.decoder->step_path(grid_id);
  return *single_flight(
      st.decoding, path, decoded,
      [&]() -> const FieldExtent* {
        std::vector<std::uint64_t> added;
        {
          OBS_SPAN("query.decode", sim::TimeCategory::kIo);
          OpenPath& op = open_path(path);
          added = st.decoder->step(
              ix, grid_id, op.size,
              [&](std::uint64_t off, std::span<std::byte> out) {
                timed_read(op.fd, off, out);
              });
        }
        const double now = sim::current_proc().now();
        for (std::uint64_t id : added) st.decoded_at[id] = now;
        grid_decodes_ += added.size();
        return nullptr;  // check again: a step may stop short of it
      },
      [] {});
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
  const SharedCache::Key key{path, block_off};
  return single_flight(
      inflight_, key,
      [&]() -> SharedCache::BlockData {
        std::optional<SharedCache::Found> found = cache_.lookup(key);
        if (!found) return nullptr;
        if (plan != nullptr) ++plan->cache_hits;
        // A prefetch may publish a block before its shadow-clock fetch
        // completes; pay only the un-hidden remainder.
        obs::settle_to(found->ready_time, obs::WaitKind::kSettleWait);
        return found->data;
      },
      [&]() -> SharedCache::BlockData {
        auto data = std::make_shared<const std::vector<std::byte>>(
            fetch_block(path, block_off, len));
        ++demand_fetches_;
        if (plan != nullptr) ++plan->cache_misses;
        cache_.insert(key, data, sim::current_proc().now());
        return data;
      },
      [&] {
        // Another reader is fetching this block: its result is ours too,
        // so the physical read is not duplicated.
        ++shared_fetch_waits_;
        if (plan != nullptr) ++plan->shared_waits;
      });
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
          sim::DeferredScope ds(sim::current_proc());
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
