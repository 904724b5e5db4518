#include "stage/staged_fs.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "base/byte_io.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace paramrio::stage {

namespace {

// "1GTS" little-endian — four bytes naming the staged record format.
constexpr std::uint32_t kRecordMagic = 0x31475453;

// magic + kind + path_len + logical offset + payload_len.
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;

std::string segment_name(int rank, int no) {
  return ".stage/r" + std::to_string(rank) + "/seg" + std::to_string(no);
}

/// RAII over background-I/O marking for the duration of a drain.
class BackgroundRegion {
 public:
  explicit BackgroundRegion(sim::Proc& proc) : proc_(proc) {
    proc_.set_background_io();
  }
  ~BackgroundRegion() { proc_.clear_background_io(); }
  BackgroundRegion(const BackgroundRegion&) = delete;
  BackgroundRegion& operator=(const BackgroundRegion&) = delete;

 private:
  sim::Proc& proc_;
};

}  // namespace

StagedFs::StagedFs(StagedFsParams params, pfs::FileSystem& staging,
                   pfs::FileSystem& destination)
    : params_(params), staging_(staging), dest_(destination) {
  PARAMRIO_REQUIRE(&staging_ != &dest_,
                   "StagedFs: staging and destination must be distinct");
  PARAMRIO_REQUIRE(params_.segment_bytes > 0,
                   "StagedFs: segment_bytes must be positive");
}

// ---- append path ---------------------------------------------------------

int StagedFs::segment_for_append(int rank, std::uint64_t record_bytes) {
  RankLog& log = rank_logs_[rank];
  if (log.cur_seg >= 0) {
    Segment& cur = segments_[static_cast<std::size_t>(log.cur_seg)];
    if (cur.tail + record_bytes <= params_.segment_bytes || cur.tail == 0) {
      return log.cur_seg;
    }
    // Sealed: full records only from here on; the descriptor stays open for
    // reads and the drain.
    log.cur_seg = -1;
  }
  Segment seg;
  seg.rank = rank;
  seg.no = log.next_no++;
  seg.path = segment_name(rank, seg.no);
  segments_.push_back(std::move(seg));
  const int index = static_cast<int>(segments_.size()) - 1;
  Segment& s = segments_.back();
  s.fd = staging_.open(s.path, pfs::OpenMode::kCreate);
  log.cur_seg = index;
  ++segments_created_;
  return index;
}

std::pair<int, std::uint64_t> StagedFs::append_record(
    RecordKind kind, const std::string& path, std::uint64_t offset,
    std::span<const std::byte> payload) {
  const int rank =
      sim::in_simulation() ? sim::current_proc().global_rank() : 0;
  ByteWriter w;
  w.u32(kRecordMagic);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u32(static_cast<std::uint32_t>(path.size()));
  w.u64(offset);
  w.u64(payload.size());
  w.bytes(std::as_bytes(std::span(path.data(), path.size())));
  w.bytes(payload);
  const std::vector<std::byte> rec = w.take();

  const int index = segment_for_append(rank, rec.size());
  Segment& seg = segments_[static_cast<std::size_t>(index)];
  const std::uint64_t rec_off = seg.tail;
  const std::uint64_t payload_off = rec_off + kHeaderBytes + path.size();
  // The record only becomes visible (tail advance, extent insert) once it is
  // fully staged; a crash mid-append leaves a torn tail that recover()
  // discards.  A short or transient staging fault resumes at the record's
  // first unwritten byte: the segment belongs to this rank alone and its
  // tail moves only once the whole record has landed, so the log never
  // interleaves partial records.
  const std::span<const std::byte> bytes(rec);
  fault::transfer(params_.stage_retry, stage_stats_, bytes.size(),
                  [&](std::uint64_t done) {
                    return staging_.write_at(seg.fd, rec_off + done,
                                             bytes.subspan(done));
                  });
  seg.tail += rec.size();
  if (kind != RecordKind::kData) ++seg.tombstones;
  return {index, payload_off};
}

// ---- extent map ----------------------------------------------------------

template <typename Match>
void StagedFs::remove_range(const std::string& path, std::uint64_t lo,
                            std::uint64_t len, Match match) {
  auto mit = extents_.find(path);
  if (mit == extents_.end() || len == 0) return;
  ExtentMap& m = mit->second;
  const std::uint64_t hi = lo + len;
  // A predecessor strictly overlapping from the left keeps its head.
  auto it = m.lower_bound(lo);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > lo && match(prev->first, prev->second)) {
      const Extent e = prev->second;
      const std::uint64_t e_lo = prev->first;
      const std::uint64_t cut_end = std::min(e.end, hi);
      prev->second.end = lo;
      release_live(e.seg, cut_end - lo);
      if (e.end > hi) {
        m[hi] = Extent{e.end, e.writer, e.seg, e.seg_off + (hi - e_lo)};
      }
    }
  }
  it = m.lower_bound(lo);
  while (it != m.end() && it->first < hi) {
    if (!match(it->first, it->second)) {
      ++it;
      continue;
    }
    const Extent e = it->second;
    const std::uint64_t e_lo = it->first;
    const std::uint64_t cut_end = std::min(e.end, hi);
    release_live(e.seg, cut_end - e_lo);
    it = m.erase(it);
    if (e.end > hi) {
      m[hi] = Extent{e.end, e.writer, e.seg, e.seg_off + (hi - e_lo)};
      break;
    }
  }
  if (m.empty()) extents_.erase(mit);
}

void StagedFs::punch_hole(const std::string& path, std::uint64_t lo,
                          std::uint64_t len) {
  remove_range(path, lo, len,
               [](std::uint64_t, const Extent&) { return true; });
}

void StagedFs::forget_extents(const std::string& path) {
  auto mit = extents_.find(path);
  if (mit == extents_.end()) return;
  for (const auto& [lo, e] : mit->second) release_live(e.seg, e.end - lo);
  extents_.erase(mit);
}

void StagedFs::insert_extent(const std::string& path, std::uint64_t lo,
                             std::uint64_t len, int writer, int seg,
                             std::uint64_t seg_off) {
  if (len == 0) return;
  punch_hole(path, lo, len);
  extents_[path][lo] = Extent{lo + len, writer, seg, seg_off};
  segments_[static_cast<std::size_t>(seg)].live += len;
  staged_live_bytes_ += len;
}

void StagedFs::release_live(int seg, std::uint64_t bytes) {
  if (seg < 0 || bytes == 0) return;
  Segment& s = segments_[static_cast<std::size_t>(seg)];
  s.live -= bytes;
  staged_live_bytes_ -= bytes;
  if (s.live == 0) maybe_gc(seg);
}

void StagedFs::maybe_gc(int seg) {
  Segment& s = segments_[static_cast<std::size_t>(seg)];
  if (s.removed || s.live > 0) return;
  // Tombstones must survive until flush: a later recover() still needs them
  // to suppress resurrection of removed files.
  if (s.tombstones > 0) return;
  // Never collect the segment its rank is still appending to.
  auto it = rank_logs_.find(s.rank);
  if (it != rank_logs_.end() && it->second.cur_seg == seg) return;
  gc_segment(s);
}

void StagedFs::gc_segment(Segment& seg) {
  if (seg.removed) return;
  if (seg.fd >= 0) {
    staging_.close(seg.fd);
    seg.fd = -1;
  }
  staging_.remove(seg.path);
  seg.removed = true;
  ++segments_removed_;
}

int StagedFs::ensure_read_fd(Segment& seg) {
  PARAMRIO_REQUIRE(!seg.removed, "StagedFs: read from collected segment");
  if (seg.fd < 0) seg.fd = staging_.open(seg.path, pfs::OpenMode::kRead);
  return seg.fd;
}

// ---- destination descriptors --------------------------------------------

int StagedFs::dest_write_fd(const std::string& path) {
  auto it = dest_write_fds_.find(path);
  if (it != dest_write_fds_.end()) return it->second;
  const pfs::OpenMode mode = dest_.exists(path) ? pfs::OpenMode::kReadWrite
                                                : pfs::OpenMode::kCreate;
  const int fd = dest_.open(path, mode);
  dest_write_fds_[path] = fd;
  return fd;
}

void StagedFs::drop_dest_fds(const std::string& path) {
  auto rit = dest_read_fds_.find(path);
  if (rit != dest_read_fds_.end()) {
    dest_.close(rit->second);
    dest_read_fds_.erase(rit);
  }
  auto wit = dest_write_fds_.find(path);
  if (wit != dest_write_fds_.end()) {
    dest_.close(wit->second);
    dest_write_fds_.erase(wit);
  }
}

// ---- timed data path -----------------------------------------------------

void StagedFs::tier_read(pfs::FileSystem& fs, int fd, std::uint64_t offset,
                         std::span<std::byte> out) {
  fault::transfer(params_.stage_retry, stage_stats_, out.size(),
                  [&](std::uint64_t done) {
                    return fs.read_at(fd, offset + done, out.subspan(done));
                  });
}

void StagedFs::backlog_gauge() const {
  obs::gauge_int("stage/backlog_bytes", staged_live_bytes_);
}

void StagedFs::charge(sim::Proc& proc, const std::string& path,
                      std::uint64_t offset, std::uint64_t bytes,
                      bool is_write) {
  if (bytes == 0) return;
  if (is_write) {
    // The base write path just committed these bytes to the logical image;
    // stage exactly that range as one log record on the caller's spindle.
    std::vector<std::byte> payload(bytes);
    store().read_at(path, offset, payload);
    const auto [seg, seg_off] = append_record(RecordKind::kData, path, offset,
                                              payload);
    insert_extent(path, offset, bytes, proc.global_rank(), seg, seg_off);
    staged_bytes_ += bytes;
    if (obs::detail()) backlog_gauge();
    return;
  }

  // Read: split the range against the extent map — staged runs come from
  // the staging segments, the rest from the destination — and verify every
  // tier byte against the logical image (the two-tier self-check).
  std::vector<std::byte> expect(bytes);
  store().read_at(path, offset, expect);
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t len = 0;
    int seg = -1;  ///< -1 = destination fallback
    std::uint64_t seg_off = 0;
  };
  // Snapshot the split before any timed call: tier reads advance virtual
  // time, and the map may shift under concurrent writers.
  std::vector<Run> runs;
  const std::uint64_t end = offset + bytes;
  std::uint64_t pos = offset;
  const auto mit = extents_.find(path);
  while (pos < end) {
    const Extent* cover = nullptr;
    std::uint64_t cover_lo = 0;
    std::uint64_t next_staged = end;
    if (mit != extents_.end()) {
      const ExtentMap& m = mit->second;
      auto it = m.upper_bound(pos);
      if (it != m.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > pos) {
          cover = &prev->second;
          cover_lo = prev->first;
        }
      }
      if (cover == nullptr && it != m.end()) {
        next_staged = std::min(next_staged, it->first);
      }
    }
    if (cover != nullptr) {
      const std::uint64_t run_end = std::min(end, cover->end);
      runs.push_back(Run{pos, run_end - pos, cover->seg,
                         cover->seg_off + (pos - cover_lo)});
      pos = run_end;
    } else {
      runs.push_back(Run{pos, next_staged - pos, -1, 0});
      pos = next_staged;
    }
  }

  std::vector<std::byte> got;
  for (const Run& run : runs) {
    got.assign(run.len, std::byte{0});
    bool verified = false;
    if (run.seg >= 0 &&
        !segments_[static_cast<std::size_t>(run.seg)].removed) {
      Segment& seg = segments_[static_cast<std::size_t>(run.seg)];
      tier_read(staging_, ensure_read_fd(seg), run.seg_off, got);
      verified = true;
    } else {
      // Destination fallback: drained bytes, untimed-mirrored setup bytes,
      // or (if the run raced a concurrent drain) freshly migrated ones.
      const std::uint64_t dsize =
          dest_.store().exists(path) ? dest_.store().size(path) : 0;
      const std::uint64_t have =
          dsize > run.lo ? std::min<std::uint64_t>(run.len, dsize - run.lo)
                         : 0;
      if (have > 0) {
        int& fd = dest_read_fds_[path];
        if (fd == 0) fd = dest_.open(path, pfs::OpenMode::kRead);
        tier_read(dest_, fd, run.lo, std::span<std::byte>(got).first(have));
        verified = true;
      }
      if (have < run.len) {
        // Bytes that exist logically but on neither tier: a seeding bug the
        // tests pin to zero.  Served from the logical image, uncharged.
        unmapped_read_bytes_ += run.len - have;
        std::copy(expect.begin() +
                      static_cast<std::ptrdiff_t>(run.lo - offset + have),
                  expect.begin() +
                      static_cast<std::ptrdiff_t>(run.lo - offset + run.len),
                  got.begin() + static_cast<std::ptrdiff_t>(have));
      }
    }
    if (verified &&
        !std::equal(got.begin(), got.end(),
                    expect.begin() +
                        static_cast<std::ptrdiff_t>(run.lo - offset))) {
      throw LogicError("StagedFs: tier bytes diverge from the logical image: "
                       + path + " [" + std::to_string(run.lo) + ", " +
                       std::to_string(run.lo + run.len) + ") served from " +
                       (run.seg >= 0 ? "staging" : "destination"));
    }
  }
}

// ---- namespace hooks -----------------------------------------------------

void StagedFs::on_remove(const std::string& path) {
  forget_extents(path);
  drop_dest_fds(path);
  if (dest_.exists(path)) dest_.remove(path);
  append_record(RecordKind::kRemove, path, 0, {});
}

void StagedFs::on_truncate(const std::string& path) {
  forget_extents(path);
  drop_dest_fds(path);
  if (dest_.exists(path)) dest_.remove(path);
  append_record(RecordKind::kTruncate, path, 0, {});
}

void StagedFs::on_untimed_write(const std::string& path, std::uint64_t offset,
                                std::span<const std::byte> data) {
  // Setup bytes go where a direct run would have put them — the destination
  // — and punch through any staged extents they supersede.
  if (!dest_.store().exists(path)) dest_.store().create(path);
  dest_.store().write_at(path, offset, data);
  punch_hole(path, offset, data.size());
}

// ---- drain ---------------------------------------------------------------

void StagedFs::drain_mine(DrainPolicy policy) {
  if (policy == DrainPolicy::kLazy) return;
  PARAMRIO_REQUIRE(sim::in_simulation(),
                   "StagedFs::drain_mine needs a simulated proc "
                   "(use flush_untimed outside the simulation)");
  sim::Proc& proc = sim::current_proc();
  const int rank = proc.global_rank();

  // Deterministic (path, offset)-ordered snapshot of this rank's extents,
  // coalescing runs that are contiguous both logically and in the segment.
  struct Item {
    std::string path;
    std::uint64_t lo = 0;
    std::uint64_t len = 0;
    int seg = -1;
    std::uint64_t seg_off = 0;
  };
  std::vector<Item> items;
  for (const auto& [path, m] : extents_) {
    for (const auto& [lo, e] : m) {
      if (e.writer != rank) continue;
      if (!items.empty() && items.back().path == path &&
          items.back().seg == e.seg &&
          items.back().lo + items.back().len == lo &&
          items.back().seg_off + items.back().len == e.seg_off) {
        items.back().len += e.end - lo;
      } else {
        items.push_back(Item{path, lo, e.end - lo, e.seg, e.seg_off});
      }
    }
  }
  if (items.empty()) return;

  OBS_SPAN("stage.drain", sim::TimeCategory::kIo);
  const auto migrate = [&] {
    BackgroundRegion bg(proc);
    std::vector<std::byte> buf;
    for (const Item& item : items) {
      Segment& seg = segments_[static_cast<std::size_t>(item.seg)];
      if (seg.removed) continue;  // superseded while this drain progressed
      buf.assign(item.len, std::byte{0});
      tier_read(staging_, ensure_read_fd(seg), item.seg_off, buf);
      const int dfd = dest_write_fd(item.path);
      const std::span<const std::byte> bytes(buf);
      try {
        fault::transfer(params_.drain_retry, drain_stats_, bytes.size(),
                        [&](std::uint64_t done) {
                          return dest_.write_at(dfd, item.lo + done,
                                                bytes.subspan(done));
                        });
      } catch (const TransientIoError& e) {  // lint:allow(retry-loop)
        // The budget is spent.  Diagnosed failure, never silent loss: the
        // staged extent stays indexed and a later drain (or recover) can
        // still migrate it.
        throw IoError("stage.drain: destination write of " + item.path +
                      " [" + std::to_string(item.lo) + ", " +
                      std::to_string(item.lo + item.len) + ") from " +
                      seg.path + " failed after " +
                      std::to_string(params_.drain_retry.max_retries) +
                      " retries (" + e.what() + "); staged bytes retained");
      }
      // Erase exactly what was migrated: only intervals still pointing at
      // this segment location (a concurrent overwrite re-staged newer bytes
      // that must keep precedence over the just-drained copy).
      remove_range(item.path, item.lo, item.len,
                   [&](std::uint64_t e_lo, const Extent& e) {
                     return e.writer == rank && e.seg == item.seg &&
                            e.seg_off ==
                                item.seg_off + (std::max(e_lo, item.lo) -
                                                item.lo) -
                                    (std::max(e_lo, item.lo) - e_lo);
                   });
      drained_bytes_ += item.len;
      if (obs::detail()) backlog_gauge();
    }
  };

  if (policy == DrainPolicy::kSync) {
    migrate();
    return;
  }
  // Async: the bytes move now (content determinism is preserved — the
  // engine still serialises execution) but the time accrues on the shadow
  // clock; drain_settle charges whatever was not hidden behind later work.
  sim::DeferredScope defer(proc);
  migrate();
  const double horizon = defer.end();
  double& h = drain_horizon_[rank];
  h = std::max(h, horizon);
}

void StagedFs::drain_settle() {
  if (!sim::in_simulation()) return;
  sim::Proc& proc = sim::current_proc();
  const auto it = drain_horizon_.find(proc.global_rank());
  if (it == drain_horizon_.end()) return;
  const double horizon = it->second;
  drain_horizon_.erase(it);
  obs::settle_to(horizon, obs::WaitKind::kDrainWait);
}

void StagedFs::flush_untimed() {
  PARAMRIO_REQUIRE(!sim::in_simulation(),
                   "StagedFs::flush_untimed is an outside-simulation step "
                   "(use drain_mine from a proc)");
  for (const auto& [path, m] : extents_) {
    for (const auto& [lo, e] : m) {
      const Segment& seg = segments_[static_cast<std::size_t>(e.seg)];
      std::vector<std::byte> buf(e.end - lo);
      staging_.store().read_at(seg.path, e.seg_off, buf);
      if (!dest_.store().exists(path)) dest_.store().create(path);
      dest_.store().write_at(path, lo, buf);
      drained_bytes_ += buf.size();
    }
  }
  extents_.clear();
  staged_live_bytes_ = 0;
  for (Segment& s : segments_) {
    s.live = 0;
    if (!s.removed) gc_segment(s);
  }
  for (auto& [rank, log] : rank_logs_) log.cur_seg = -1;
  drain_horizon_.clear();
}

// ---- crash recovery ------------------------------------------------------

void StagedFs::recover() {
  PARAMRIO_REQUIRE(!sim::in_simulation(),
                   "StagedFs::recover is an untimed rebuild");
  PARAMRIO_REQUIRE(segments_.empty() && extents_.empty(),
                   "StagedFs::recover needs a freshly constructed facade");
  // 1. Drained truth first: the destination's files seed the logical image.
  for (const std::string& f : dest_.store().list()) {
    std::vector<std::byte> bytes(dest_.store().size(f));
    dest_.store().read_at(f, 0, bytes);
    store().create(f);
    store().write_at(f, 0, bytes);
  }
  // 2. Discover the per-rank segment chains left on the staging tier.
  struct Found {
    int rank = 0;
    int no = 0;
    std::string path;
  };
  std::vector<Found> found;
  for (const std::string& f : staging_.store().list()) {
    int rank = 0;
    int no = 0;
    if (std::sscanf(f.c_str(), ".stage/r%d/seg%d", &rank, &no) == 2) {
      found.push_back(Found{rank, no, f});
    }
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.no < b.no;
  });
  // 3. Replay each chain in order, overlaying staged payloads (re-applying
  // already-drained records is idempotent) and stopping a chain at its first
  // torn or malformed record — the signature of a crash mid-append.
  for (const Found& f : found) {
    segments_.push_back(Segment{f.path, f.rank, f.no});
    const int seg_index = static_cast<int>(segments_.size()) - 1;
    RankLog& log = rank_logs_[f.rank];
    log.next_no = std::max(log.next_no, f.no + 1);
    std::vector<std::byte> raw(staging_.store().size(f.path));
    staging_.store().read_at(f.path, 0, raw);
    std::uint64_t pos = 0;
    while (raw.size() - pos >= kHeaderBytes) {
      ByteReader r(std::span<const std::byte>(raw).subspan(pos));
      if (r.u32() != kRecordMagic) break;
      const std::uint32_t kind = r.u32();
      const std::uint32_t path_len = r.u32();
      const std::uint64_t offset = r.u64();
      const std::uint64_t payload_len = r.u64();
      if (kind > static_cast<std::uint32_t>(RecordKind::kTruncate)) break;
      // Lengths past the end of the segment, or a logical range past the
      // largest offset, are as torn as a cut tail.
      const std::uint64_t left = raw.size() - pos - kHeaderBytes;
      if (path_len > left || payload_len > left - path_len ||
          payload_len > std::numeric_limits<std::uint64_t>::max() - offset) {
        break;
      }
      const std::string path(
          reinterpret_cast<const char*>(raw.data() + pos + kHeaderBytes),
          path_len);
      const auto payload = std::span<const std::byte>(raw).subspan(
          pos + kHeaderBytes + path_len, payload_len);
      switch (static_cast<RecordKind>(kind)) {
        case RecordKind::kData:
          if (!store().exists(path)) store().create(path);
          store().write_at(path, offset, payload);
          insert_extent(path, offset, payload_len, f.rank, seg_index,
                        pos + kHeaderBytes + path_len);
          break;
        case RecordKind::kRemove:
          segments_[static_cast<std::size_t>(seg_index)].tombstones += 1;
          forget_extents(path);
          if (store().exists(path)) store().remove(path);
          break;
        case RecordKind::kTruncate:
          segments_[static_cast<std::size_t>(seg_index)].tombstones += 1;
          forget_extents(path);
          store().create(path);
          break;
      }
      pos += kHeaderBytes + path_len + payload_len;
    }
    segments_[static_cast<std::size_t>(seg_index)].tail = pos;
  }
}

// ---- counters ------------------------------------------------------------

void StagedFs::export_counters(obs::MetricsRegistry& reg) const {
  FileSystem::export_counters(reg);
  const std::string scope = "fs:" + name();
  reg.add(scope, "staged_bytes", staged_bytes_);
  reg.add(scope, "drained_bytes", drained_bytes_);
  reg.add(scope, "staged_live_bytes", staged_live_bytes_);
  reg.add(scope, "segments_created", segments_created_);
  reg.add_nonzero(scope, "segments_removed", segments_removed_);
  reg.add_nonzero(scope, "stage_retries", stage_stats_.retries);
  reg.add_nonzero(scope, "drain_retries", drain_stats_.retries);
  reg.add_nonzero(scope, "unmapped_read_bytes", unmapped_read_bytes_);
}

}  // namespace paramrio::stage
