#include "mpi/io/file.hpp"

#include <algorithm>
#include <tuple>

#include "mpi/io/deferred_scope.hpp"
#include "obs/profiler.hpp"
#include "verify/verify.hpp"

namespace paramrio::mpi::io {

std::string hints_key(const Hints& h) {
  std::string key = "cb=" + std::to_string(h.cb_buffer_size) +
                    ",cbn=" + std::to_string(h.cb_nodes) +
                    ",al=" + std::to_string(h.cb_align) +
                    ",ds=" + std::to_string(h.ds_buffer_size) +
                    ",dsr=" + std::to_string(h.data_sieving_reads ? 1 : 0) +
                    ",dsw=" + std::to_string(h.data_sieving_writes ? 1 : 0) +
                    ",wb=" + std::to_string(h.wb_buffer_size) + "," +
                    fault::retry_key(h.retry);
  // Appended only when set, so overlap-off scope names (and therefore
  // registry/trace exports) are byte-identical to earlier releases.
  if (h.overlap) key += ",ov=1";
  return key;
}

File::File(Comm& comm, pfs::FileSystem& fs, std::string path,
           pfs::OpenMode mode, Hints hints)
    : comm_(comm), fs_(fs), path_(std::move(path)), hints_(hints) {
  if (verify::Verifier* v = verify::verifier()) {
    // The open signature every rank must agree on: mode plus the full
    // deterministic hints key.
    v->on_file_open(path_, comm_.rank(), comm_.size(),
                    "mode=" + std::to_string(static_cast<int>(mode)) + "|" +
                        hints_key(hints_));
  }
  if (mode == pfs::OpenMode::kCreate) {
    // Rank 0 creates/truncates; everyone else attaches read-write after the
    // creation is globally visible.
    if (comm_.rank() == 0) fd_ = fs_.open(path_, pfs::OpenMode::kCreate);
    comm_.barrier();
    if (comm_.rank() != 0) fd_ = fs_.open(path_, pfs::OpenMode::kReadWrite);
  } else {
    fd_ = fs_.open(path_, mode);
  }
  open_ = true;
}

File::~File() {
  // Collective close must be explicit; a destructor cannot synchronise.
  // Release the descriptor quietly if the user forgot.
  if (open_) {
    drop_prefetch();
    persist_stats();
    fs_.close(fd_);
  }
}

void File::close() {
  PARAMRIO_REQUIRE(open_, "File::close: already closed");
  OBS_SPAN("mpiio.close", sim::TimeCategory::kIo);
  note_collective("close", 0);
  flush();
  // Drain-and-diagnose: everything still in flight is settled here so no
  // accounting is lost, but leaks are counted and reported — an unwaited
  // request, an unpaired split begin, or an unconsumed prefetch at close is
  // a caller bug the verifier should see, not something to drop silently.
  const bool split_leaked = split_active_;
  drain_collective();  // settles an unpaired begin's in-flight window too
  split_active_ = false;
  const std::uint64_t leaked_requests = pending_requests_;
  pending_requests_ = 0;
  stats_.requests_leaked_at_close += leaked_requests;
  const std::uint64_t leaked_prefetches = prefetched_.size();
  drop_prefetch();
  // In-flight independent ops the caller never waited on finish here; no
  // saved-time credit (wait() is where hiding is accounted), just the stall.
  if (sim::in_simulation() && inflight_horizon_ > 0.0) {
    obs::record_wait(obs::WaitKind::kSettleWait,
                     sim::current_proc().now(), inflight_horizon_);
    sim::current_proc().clock_at_least(inflight_horizon_,
                                       sim::TimeCategory::kIo);
  }
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_close(path_, comm_.rank(), leaked_requests, leaked_prefetches,
                     split_leaked, stats_.overlap_saved_time);
  }
  comm_.barrier();
  persist_stats();
  fs_.close(fd_);
  open_ = false;
}

void File::persist_stats() {
  obs::Collector* c = obs::collector();
  if (c == nullptr) return;
  const std::string scope = "file:" + path_ + "|" + hints_key(hints_);
  obs::MetricsRegistry& reg = c->registry();
  reg.add(scope, "independent_ops", stats_.independent_ops);
  reg.add(scope, "collective_ops", stats_.collective_ops);
  reg.add(scope, "sieve_windows", stats_.sieve_windows);
  reg.add(scope, "two_phase_windows", stats_.two_phase_windows);
  reg.add(scope, "wb_flushes", stats_.wb_flushes);
  reg.add(scope, "wb_absorbed", stats_.wb_absorbed);
  reg.add(scope, "collective_fastpath", stats_.collective_fastpath);
  reg.add(scope, "cb_aligned_windows", stats_.cb_aligned_windows);
  reg.add(scope, "cb_straddle_windows", stats_.cb_straddle_windows);
  reg.add(scope, "cb_token_saves", stats_.cb_token_saves);
  reg.observe_max(scope, "cb_peak_window_bytes", stats_.cb_peak_window_bytes);
  const fault::RetryStats& rs = stats_.retry;
  reg.add_nonzero(scope, "io_retries", rs.retries);
  reg.add_nonzero(scope, "transient_io_errors", rs.transient_errors);
  reg.add_nonzero(scope, "short_writes", rs.short_writes);
  reg.add_nonzero(scope, "short_reads", rs.short_reads);
  reg.add_nonzero(scope, "write_verifications", rs.write_verifications);
  reg.add_value_nonzero(scope, "backoff_seconds", rs.backoff_seconds);
  reg.add_nonzero(scope, "collective_fallbacks", stats_.collective_fallbacks);
  reg.add_nonzero(scope, "split_collectives", stats_.split_collectives);
  reg.add_nonzero(scope, "overlap_windows", stats_.overlap_windows);
  reg.add_nonzero(scope, "prefetch_hits", stats_.prefetch_hits);
  reg.add_nonzero(scope, "prefetch_misses", stats_.prefetch_misses);
  reg.add_nonzero(scope, "view_flatten_cache_hits",
                  stats_.view_flatten_cache_hits);
  reg.add_value_nonzero(scope, "overlap_saved_time",
                        stats_.overlap_saved_time);
  reg.add_nonzero(scope, "requests_leaked_at_close",
                  stats_.requests_leaked_at_close);
}

void File::check_open(const char* op) const {
  if (open_) return;
  if (verify::Verifier* v = verify::verifier()) {
    v->on_post_close_io(path_, comm_.rank(), op);
  }
  throw IoError("File::" + std::string(op) + "(" + path_ +
                "): file is closed");
}

void File::note_collective(const char* op, std::uint64_t data_bytes) const {
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_collective(path_, comm_.rank(), op, data_bytes, view_sig_);
  }
}

// ---- fault-surviving fs access --------------------------------------------
//
// Every byte a File moves goes through fs_read/fs_write, each one
// fault::transfer under hints.retry: a short transfer is continued from
// where it stopped (always on, since silently accepting a short write would
// corrupt the file) and, when hints.retry is enabled, TransientIoError is
// absorbed with exponential backoff on the virtual clock.  fs_write also
// reads the landed prefix of a retryable short write back before resuming
// behind it.

void File::fs_read(std::uint64_t offset, std::span<std::byte> out) {
  const auto attempt = [&](std::uint64_t done) {
    const std::uint64_t got =
        fs_.read_at(fd_, offset + done, out.subspan(done));
    if (got < out.size() - done) stats_.retry.short_reads += 1;
    return got;
  };
  fault::transfer(hints_.retry, stats_.retry, out.size(), attempt);
}

void File::fs_write(std::uint64_t offset, std::span<const std::byte> data) {
  const fault::RetryPolicy& rp = hints_.retry;
  const auto attempt = [&](std::uint64_t done) {
    const std::uint64_t wrote =
        fs_.write_at(fd_, offset + done, data.subspan(done));
    if (wrote == data.size() - done) return wrote;
    stats_.retry.short_writes += 1;
    if (!rp.enabled() || !rp.verify_short_writes || wrote == 0) return wrote;
    // Read the landed prefix back before resuming behind it: a short write
    // that also corrupted its prefix must be redone, not resumed.
    std::vector<std::byte> landed(wrote);
    bool intact = true;
    try {
      const std::uint64_t got = fs_.read_at(fd_, offset + done, landed);
      stats_.retry.write_verifications += 1;
      intact = std::equal(landed.begin(),
                          landed.begin() + static_cast<std::ptrdiff_t>(got),
                          data.begin() + static_cast<std::ptrdiff_t>(done));
    } catch (const TransientIoError&) {  // lint:allow(retry-loop)
      // The read-back is a check, not a transfer: when it fails transiently
      // the landed prefix is still the store's truth, so resume behind it.
    }
    if (!intact) {
      throw TransientIoError("write_at(" + path_ +
                             "): verification mismatch");
    }
    return wrote;
  };
  fault::transfer(rp, stats_.retry, data.size(), attempt);
}

void File::set_view(std::uint64_t disp, Datatype filetype) {
  view_disp_ = disp;
  view_sig_ = filetype.signature();
  view_type_ = std::move(filetype);
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_view(path_, comm_.rank(), disp, view_sig_);
  }
}

void File::set_view(std::uint64_t disp) {
  view_disp_ = disp;
  view_sig_ = 0;
  view_type_.reset();
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_view(path_, comm_.rank(), disp, 0);
  }
}

std::uint64_t File::size() {
  flush();
  return fs_.size(fd_);
}

void File::flush() {
  if (wb_runs_.empty()) return;
  OBS_SPAN("mpiio.wb_flush", sim::TimeCategory::kIo);
  stats_.wb_flushes += 1;
  for (const auto& [offset, data] : wb_runs_) {
    fs_write(offset, data);
  }
  wb_runs_.clear();
  wb_bytes_ = 0;
}

bool File::wb_absorb(std::uint64_t offset, std::span<const std::byte> data) {
  if (hints_.wb_buffer_size == 0 || data.empty()) return false;
  if (data.size() > hints_.wb_buffer_size) return false;
  if (wb_bytes_ + data.size() > hints_.wb_buffer_size) flush();

  // Overlap with a pending run would need merge logic; flush instead (rare
  // for the append-style patterns write-behind targets).
  auto next = wb_runs_.lower_bound(offset);
  bool overlap = false;
  if (next != wb_runs_.end() && next->first < offset + data.size()) {
    overlap = true;
  }
  if (next != wb_runs_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.size() > offset) overlap = true;
  }
  if (overlap) flush();

  // Coalesce with the run that ends exactly at `offset`.
  auto it = wb_runs_.lower_bound(offset);
  if (it != wb_runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() == offset) {
      prev->second.insert(prev->second.end(), data.begin(), data.end());
      comm_.charge_memcpy(data.size());
      wb_bytes_ += data.size();
      return true;
    }
  }
  auto& run = wb_runs_[offset];
  run.assign(data.begin(), data.end());
  comm_.charge_memcpy(data.size());
  wb_bytes_ += data.size();
  return true;
}

std::vector<Segment> File::map_view(std::uint64_t offset, std::uint64_t len) {
  std::vector<Segment> segs;
  if (len == 0) return segs;
  if (!view_type_) {
    segs.push_back(Segment{view_disp_ + offset, len});
    return segs;
  }
  // Flatten memo: results are stored disp-relative and keyed by the
  // filetype's layout signature, so re-installing an identical filetype at a
  // different displacement (ENZO sets one subarray view per baryon field)
  // still hits; the LRU keeps alternating views from evicting each other.
  auto hit = std::find_if(flatten_cache_.begin(), flatten_cache_.end(),
                          [&](const FlattenEntry& e) {
                            return e.sig == view_sig_ && e.offset == offset &&
                                   e.len == len;
                          });
  if (hit != flatten_cache_.end()) {
    stats_.view_flatten_cache_hits += 1;
    if (hit != flatten_cache_.begin()) {
      std::rotate(flatten_cache_.begin(), hit, std::next(hit));
    }
    segs = flatten_cache_.front().segs;
  } else {
    view_type_->map_stream(offset, len, segs);
    if (flatten_cache_.size() >= kFlattenCacheCapacity) {
      flatten_cache_.pop_back();
    }
    flatten_cache_.insert(flatten_cache_.begin(),
                          FlattenEntry{view_sig_, offset, len, segs});
  }
  for (Segment& s : segs) s.offset += view_disp_;
  return segs;
}

void File::read_at(std::uint64_t offset, std::span<std::byte> buf) {
  check_open("read_at");
  if (buf.empty()) return;
  OBS_SPAN("mpiio.read", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  flush();  // reads must observe this rank's buffered writes
  stats_.independent_ops += 1;
  auto segs = map_view(offset, buf.size());
  if (!prefetched_.empty()) {
    // An exact segment match is a hit: settle the in-flight read and copy.
    for (auto it = prefetched_.begin(); it != prefetched_.end(); ++it) {
      if (it->segs == segs) {
        stats_.prefetch_hits += 1;
        settle_deferred(it->issued, it->completion);
        std::copy(it->data.begin(), it->data.end(), buf.begin());
        comm_.charge_memcpy(buf.size());
        prefetched_.erase(it);
        return;
      }
    }
    // A partially-overlapping read cannot be stitched from the buffer;
    // discard the stale entries and read from the file.
    invalidate_prefetch(segs);
  }
  independent_read(segs, buf);
}

void File::write_at(std::uint64_t offset, std::span<const std::byte> buf) {
  check_open("write_at");
  if (buf.empty()) return;
  OBS_SPAN("mpiio.write", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  stats_.independent_ops += 1;
  auto segs = map_view(offset, buf.size());
  invalidate_prefetch(segs);
  if (segs.size() == 1 && wb_absorb(segs[0].offset, buf)) {
    stats_.wb_absorbed += 1;
    return;
  }
  independent_write(segs, buf);
}

void File::independent_read(const std::vector<Segment>& segs,
                            std::span<std::byte> buf) {
  if (segs.size() == 1) {
    fs_read(segs[0].offset, buf);
    return;
  }
  if (!hints_.data_sieving_reads) {
    std::uint64_t pos = 0;
    for (const Segment& s : segs) {
      fs_read(s.offset, buf.subspan(pos, s.length));
      pos += s.length;
    }
    return;
  }
  // Data sieving: walk the hull [first, last) in sieve-buffer windows; one
  // contiguous read per window, then extract the wanted pieces.  The buffer
  // is sized to the actual hull, not the full ds_buffer_size hint.
  std::uint64_t hull_lo = segs.front().offset;
  std::uint64_t hull_hi = segs.back().offset + segs.back().length;
  std::vector<std::byte> sieve(
      std::min<std::uint64_t>(hints_.ds_buffer_size, hull_hi - hull_lo));
  std::size_t si = 0;           // current segment
  std::uint64_t seg_done = 0;   // bytes of segs[si] already delivered
  std::uint64_t buf_pos = 0;
  for (std::uint64_t w = hull_lo; w < hull_hi;
       w += hints_.ds_buffer_size) {
    std::uint64_t we = std::min(w + hints_.ds_buffer_size, hull_hi);
    stats_.sieve_windows += 1;
    std::span<std::byte> win(sieve.data(), we - w);
    fs_read(w, win);
    while (si < segs.size()) {
      std::uint64_t so = segs[si].offset + seg_done;
      if (so >= we) break;
      std::uint64_t take = std::min(segs[si].length - seg_done, we - so);
      std::copy_n(win.begin() + static_cast<std::ptrdiff_t>(so - w), take,
                  buf.begin() + static_cast<std::ptrdiff_t>(buf_pos));
      comm_.charge_memcpy(take);
      buf_pos += take;
      seg_done += take;
      if (seg_done == segs[si].length) {
        ++si;
        seg_done = 0;
      }
    }
  }
  PARAMRIO_REQUIRE(buf_pos == buf.size(), "sieve read did not fill buffer");
}

void File::independent_write(const std::vector<Segment>& segs,
                             std::span<const std::byte> buf) {
  if (segs.size() == 1) {
    fs_write(segs[0].offset, buf);
    return;
  }
  if (!hints_.data_sieving_writes) {
    std::uint64_t pos = 0;
    for (const Segment& s : segs) {
      fs_write(s.offset, buf.subspan(pos, s.length));
      pos += s.length;
    }
    return;
  }
  // Write "sieving": assemble runs of segments that fit one sieve buffer and
  // whose hull is densely used (>= 50%), and write each assembled hull with
  // a read-modify-write; sparse runs are written per segment.  This mirrors
  // ROMIO's ind-write data sieving without file locking (the engine already
  // serialises ranks).
  std::uint64_t buf_pos = 0;
  std::size_t i = 0;
  std::vector<std::byte> sieve;
  while (i < segs.size()) {
    // Grow a run [i, j) limited by the sieve buffer.
    std::size_t j = i + 1;
    std::uint64_t used = segs[i].length;
    while (j < segs.size() &&
           segs[j].offset + segs[j].length - segs[i].offset <=
               hints_.ds_buffer_size) {
      used += segs[j].length;
      ++j;
    }
    std::uint64_t hull_lo = segs[i].offset;
    std::uint64_t hull_hi = segs[j - 1].offset + segs[j - 1].length;
    std::uint64_t hull = hull_hi - hull_lo;
    if (j - i > 1 && used * 2 >= hull) {
      stats_.sieve_windows += 1;
      sieve.resize(hull);
      // Read-modify-write: preserve existing bytes in the holes.  Only the
      // part of the hull that exists on disk is read, and only (read-back
      // bytes ∪ covered segments) are written back — gaps past EOF stay
      // unmaterialised, so a genuine hole is still a hole to the checker
      // and to Table-1 write accounting.
      std::uint64_t fsize = fs_.size(fd_);
      std::uint64_t readable =
          hull_lo < fsize ? std::min(hull, fsize - hull_lo) : 0;
      if (readable > 0) {
        fs_read(hull_lo, std::span<std::byte>(sieve.data(), readable));
      }
      for (std::size_t k = i; k < j; ++k) {
        std::copy_n(
            buf.begin() + static_cast<std::ptrdiff_t>(buf_pos),
            segs[k].length,
            sieve.begin() +
                static_cast<std::ptrdiff_t>(segs[k].offset - hull_lo));
        comm_.charge_memcpy(segs[k].length);
        buf_pos += segs[k].length;
      }
      // Merge the readable prefix with the segment intervals and write each
      // resulting run; the dense pre-EOF case stays one hull-sized write.
      std::uint64_t run_lo = hull_lo;
      std::uint64_t run_hi = hull_lo + readable;
      auto write_run = [&]() {
        if (run_hi > run_lo) {
          fs_write(run_lo, std::span<const std::byte>(
                               sieve.data() + (run_lo - hull_lo),
                               run_hi - run_lo));
        }
      };
      for (std::size_t k = i; k < j; ++k) {
        if (segs[k].offset <= run_hi) {
          run_hi = std::max(run_hi, segs[k].offset + segs[k].length);
        } else {
          write_run();
          run_lo = segs[k].offset;
          run_hi = segs[k].offset + segs[k].length;
        }
      }
      write_run();
    } else {
      for (std::size_t k = i; k < j; ++k) {
        fs_write(segs[k].offset, buf.subspan(buf_pos, segs[k].length));
        buf_pos += segs[k].length;
      }
    }
    i = j;
  }
  PARAMRIO_REQUIRE(buf_pos == buf.size(), "sieve write did not drain buffer");
}

void File::read_at_all(std::uint64_t offset, std::span<std::byte> buf) {
  check_open("read_at_all");
  PARAMRIO_REQUIRE(!split_active_,
                   "read_at_all: split collective still active");
  note_collective("read_at_all", buf.size());
  OBS_SPAN("mpiio.read_all", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  flush();
  stats_.collective_ops += 1;
  two_phase(/*is_write=*/false, map_view(offset, buf.size()), buf, {});
  drain_collective();
}

void File::write_at_all(std::uint64_t offset,
                        std::span<const std::byte> buf) {
  check_open("write_at_all");
  PARAMRIO_REQUIRE(!split_active_,
                   "write_at_all: split collective still active");
  note_collective("write_at_all", buf.size());
  OBS_SPAN("mpiio.write_all", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  flush();
  // Aggregators rewrite arbitrary ranks' ranges; a rank cannot tell which of
  // its prefetched ranges another rank's write covers, so drop them all.
  drop_prefetch();
  stats_.collective_ops += 1;
  two_phase(/*is_write=*/true, map_view(offset, buf.size()), {}, buf);
  drain_collective();
}

// ---- overlapped I/O (Hints::overlap) --------------------------------------

bool File::overlap_enabled() const {
  return hints_.overlap && sim::in_simulation() &&
         !sim::current_proc().deferred();
}

void File::settle_deferred(double issued, double completion) {
  if (!sim::in_simulation()) return;
  sim::Proc& proc = sim::current_proc();
  const double now_before = proc.now();
  const double hidden = std::min(completion, now_before) - issued;
  if (hidden > 0.0) stats_.overlap_saved_time += hidden;
  // Whatever the overlap did not hide is a stall waiting for the in-flight
  // window/request to land — the deferred-settle wait-for edge.
  obs::record_wait(obs::WaitKind::kSettleWait, now_before, completion);
  proc.clock_at_least(completion, sim::TimeCategory::kIo);
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_settle(path_, comm_.rank(), issued, completion,
                      hidden > 0.0 ? hidden : 0.0, now_before, proc.now());
  }
}

std::pair<double, double> File::in_flight(const char* span,
                                          const std::function<void()>& io) {
  sim::Proc& proc = sim::current_proc();
  const double issued = proc.now();
  double completion = 0.0;
  {
    DeferredScope defer(proc);
    {
      // Closed on the shadow clock, so the span ends when the I/O lands.
      OBS_SPAN(span, sim::TimeCategory::kIo);
      io();
    }
    completion = defer.end();
  }
  if (verify::Verifier* v = verify::verifier()) {
    v->on_file_deferred_issue(path_, comm_.rank(), issued, completion);
  }
  return {issued, completion};
}

void File::drain_collective() {
  if (collective_pending_completion_ < 0.0) return;
  settle_deferred(collective_pending_issue_, collective_pending_completion_);
  collective_pending_completion_ = -1.0;
}

void File::invalidate_prefetch(const std::vector<Segment>& segs) {
  if (prefetched_.empty() || segs.empty()) return;
  auto intersects = [&segs](const std::vector<Segment>& entry) {
    for (const Segment& a : entry) {
      for (const Segment& b : segs) {
        if (a.offset < b.offset + b.length && b.offset < a.offset + a.length) {
          return true;
        }
      }
    }
    return false;
  };
  for (auto it = prefetched_.begin(); it != prefetched_.end();) {
    if (intersects(it->segs)) {
      stats_.prefetch_misses += 1;
      it = prefetched_.erase(it);
    } else {
      ++it;
    }
  }
}

void File::drop_prefetch() {
  if (prefetched_.empty()) return;
  stats_.prefetch_misses += prefetched_.size();
  prefetched_.clear();
}

Request File::iwrite_at(std::uint64_t offset, std::span<const std::byte> buf) {
  check_open("iwrite_at");
  Request req;
  if (buf.empty()) return req;
  if (!overlap_enabled()) {
    write_at(offset, buf);
    return req;  // completed synchronously; inactive
  }
  flush();  // keep file-order with earlier buffered writes
  stats_.independent_ops += 1;
  auto segs = map_view(offset, buf.size());
  invalidate_prefetch(segs);
  std::tie(req.issued_, req.completion_) = in_flight("mpiio.iwrite", [&] {
    obs::span_counter("bytes", buf.size());
    independent_write(segs, buf);
  });
  req.active_ = true;
  pending_requests_ += 1;
  obs::gauge_int("rank" + std::to_string(sim::current_proc().global_rank()) +
                     "/mpiio_outstanding",
                 pending_requests_);
  inflight_horizon_ = std::max(inflight_horizon_, req.completion_);
  return req;
}

void File::wait(Request& req) {
  if (!req.active_) return;
  req.active_ = false;
  if (pending_requests_ > 0) pending_requests_ -= 1;
  if (sim::in_simulation()) {
    obs::gauge_int(
        "rank" + std::to_string(sim::current_proc().global_rank()) +
            "/mpiio_outstanding",
        pending_requests_);
  }
  settle_deferred(req.issued_, req.completion_);
}

void File::wait_all(std::span<Request> reqs) {
  for (Request& r : reqs) wait(r);
}

void File::read_at_all_begin(std::uint64_t offset, std::span<std::byte> buf) {
  check_open("read_at_all_begin");
  PARAMRIO_REQUIRE(!split_active_,
                   "read_at_all_begin: split collective already active");
  note_collective("read_at_all_begin", buf.size());
  OBS_SPAN("mpiio.read_all_begin", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  flush();
  stats_.collective_ops += 1;
  two_phase(/*is_write=*/false, map_view(offset, buf.size()), buf, {});
  split_active_ = true;
}

void File::read_at_all_end() {
  check_open("read_at_all_end");
  PARAMRIO_REQUIRE(split_active_,
                   "read_at_all_end: no split collective active");
  note_collective("read_at_all_end", 0);
  OBS_SPAN("mpiio.read_all_end", sim::TimeCategory::kIo);
  drain_collective();
  split_active_ = false;
  stats_.split_collectives += 1;
}

void File::write_at_all_begin(std::uint64_t offset,
                              std::span<const std::byte> buf) {
  check_open("write_at_all_begin");
  PARAMRIO_REQUIRE(!split_active_,
                   "write_at_all_begin: split collective already active");
  note_collective("write_at_all_begin", buf.size());
  OBS_SPAN("mpiio.write_all_begin", sim::TimeCategory::kIo);
  obs::span_counter("bytes", buf.size());
  flush();
  drop_prefetch();
  stats_.collective_ops += 1;
  two_phase(/*is_write=*/true, map_view(offset, buf.size()), {}, buf);
  split_active_ = true;
}

void File::write_at_all_end() {
  check_open("write_at_all_end");
  PARAMRIO_REQUIRE(split_active_,
                   "write_at_all_end: no split collective active");
  note_collective("write_at_all_end", 0);
  OBS_SPAN("mpiio.write_all_end", sim::TimeCategory::kIo);
  drain_collective();
  split_active_ = false;
  stats_.split_collectives += 1;
}

void File::prefetch(std::uint64_t offset, std::uint64_t len) {
  check_open("prefetch");
  if (len == 0 || !overlap_enabled()) return;
  flush();  // the prefetched bytes must observe this rank's buffered writes
  auto segs = map_view(offset, len);
  // Never read ahead past EOF (an untimed metadata peek, like ROMIO's
  // size check before sieving); the later read_at will fault normally.
  if (segs.back().offset + segs.back().length > fs_.size(fd_)) return;
  for (const PrefetchEntry& e : prefetched_) {
    if (e.segs == segs) return;  // identical range already in flight
  }
  PrefetchEntry entry;
  entry.segs = segs;
  entry.data.resize(len);
  std::tie(entry.issued, entry.completion) = in_flight("mpiio.prefetch", [&] {
    obs::span_counter("bytes", len);
    independent_read(segs, std::span<std::byte>(entry.data));
  });
  inflight_horizon_ = std::max(inflight_horizon_, entry.completion);
  prefetched_.push_back(std::move(entry));
}

}  // namespace paramrio::mpi::io
