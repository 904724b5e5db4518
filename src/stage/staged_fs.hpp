// stage::StagedFs — burst-buffer staging tier in front of a shared file
// system (ROADMAP item 2; the generalization of the paper's Fig 9 node-local
// configuration).
//
// Dump writes land *log-structured* on a node-local staging file system
// (typically pfs::LocalDiskFs): each writing rank appends complete records
// — header, path, logical offset, payload — to its own segment files under
// ".stage/r<rank>/", and an in-memory extent map remembers which staged
// range of which logical file lives where.  Because the write path touches
// only the writer's own spindle, dump latency is independent of the
// destination's stripe geometry and of other tenants hammering the shared
// servers — the burst absorber the multi-job work needed.
//
// A *drain* later migrates staged extents to the destination file system
// (typically pfs::StripedFs), reusing the PR 4 RetryPolicy for destination
// faults and the PR 5 shadow-clock deferral machinery for asynchronous
// drains (work runs immediately, time accrues on the shadow clock, the
// issuer settles later and the stall is blamed as "stage.drain").  Drain
// traffic is marked background (sim::Proc::set_background_io): every shared
// timeline it books — NICs, backplane, I/O servers, the staging disks —
// serves it after foreground work, so a drain never delays the application
// traffic that overlaps it.
//
// Reads are tier-aware: each requested range is split against the extent
// map — staged sub-ranges are served (timed) from the staging segments,
// everything else falls back to the destination.  Every tier read is
// byte-compared against the logical image; a mismatch is a LogicError, so
// the two-tier consistency frontier is self-checking.
//
// Crash consistency: a record is only indexed after it is fully staged, so
// a crash mid-append leaves a torn *tail* that recover() detects and
// discards.  recover() on a fresh facade rebuilds the logical image by
// copying the destination files and replaying each rank's segment chain in
// order (re-applying already-drained records is idempotent).  Because every
// rank's chain is private and append-only, all persisted bytes are
// schedule-seed- and engine-backend-invariant.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/units.hpp"
#include "fault/retry.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::stage {

/// When a checkpoint generation's staged bytes move to the destination.
/// Sync: inside dump(), before the commit marker — the marker additionally
/// certifies destination durability of the data files.  Async: kicked off
/// after the marker on the shadow clock; the next dump settles it.  Lazy:
/// never automatically — the owner drains explicitly (or recovers from the
/// staging tier alone).
enum class DrainPolicy { kSync, kAsync, kLazy };

const char* to_string(DrainPolicy policy);

struct StagedFsParams {
  /// Seal a rank's current segment once its size reaches this; a single
  /// oversized record still lands whole (records never split).
  std::uint64_t segment_bytes = 8 * MiB;
  /// Retry budget for *staging-tier* appends and reads (transient faults
  /// injected on the node-local disks).  Default-off: faults propagate.
  fault::RetryPolicy stage_retry;
  /// Retry budget for *destination* writes during a drain.  A drain that
  /// exhausts this budget throws a diagnosed IoError naming the extent; the
  /// staged bytes are retained, never silently dropped.
  fault::RetryPolicy drain_retry;
};

class StagedFs final : public pfs::FileSystem {
 public:
  /// Neither tier is owned; both must outlive the facade.  The facade keeps
  /// the coherent logical byte image in its own store (like every
  /// FileSystem), the staging tier's store holds the segment files, and the
  /// destination's store holds whatever has been drained — so tests can
  /// byte-compare any tier against a direct (unstaged) run.
  StagedFs(StagedFsParams params, pfs::FileSystem& staging,
           pfs::FileSystem& destination);

  std::string name() const override { return "staged"; }

  /// Opens/creates cost whatever the staging tier charges: the dump path
  /// never touches destination metadata.
  double metadata_cost() const override { return staging_.metadata_cost(); }

  /// The *staging* tier's layout: collective buffering must align (or not)
  /// to where the bytes land first, not to the destination's stripes —
  /// this is what decouples dump latency from destination geometry.
  pfs::Layout layout(const std::string& path) const override {
    return staging_.layout(path);
  }

  pfs::FileSystem& staging() { return staging_; }
  pfs::FileSystem& destination() { return dest_; }
  const StagedFsParams& params() const { return params_; }

  // ---- drain -----------------------------------------------------------

  /// Migrate every extent staged by the *calling* proc's global rank to the
  /// destination, in deterministic (path, offset) order.  kSync charges the
  /// real clock; kAsync runs on the shadow clock (settle later with
  /// drain_settle); kLazy is a no-op.  Collective in spirit: every writing
  /// rank must call it for the staging tier to fully empty.
  void drain_mine(DrainPolicy policy);

  /// Block the calling proc until its last async drain completes; the stall
  /// is recorded as a drain wait ("stage.drain" blame).  No-op when nothing
  /// is in flight.
  void drain_settle();

  /// Migrate *all* remaining extents store-to-store outside the simulation
  /// and delete the segment files (test teardown / final integration step;
  /// the paper's "extra work to integrate the distributed pieces").
  void flush_untimed();

  /// Rebuild the two-tier state after a crash, untimed: copy the
  /// destination's files into the logical image, then replay every rank's
  /// segment chain in (rank, segment, record) order, stopping each chain at
  /// the first torn record.  Call on a *fresh* facade constructed over the
  /// surviving tier file systems.
  void recover();

  // ---- introspection ---------------------------------------------------

  std::uint64_t staged_bytes() const { return staged_bytes_; }
  std::uint64_t drained_bytes() const { return drained_bytes_; }
  /// Payload bytes currently staged but not yet drained (drain backlog).
  std::uint64_t staged_live_bytes() const { return staged_live_bytes_; }
  std::uint64_t stage_retries() const { return stage_retries_; }
  std::uint64_t drain_retries() const { return drain_retries_; }
  /// Bytes served from neither tier (logical image only) — zero on any
  /// correctly seeded run; tests assert on it.
  std::uint64_t unmapped_read_bytes() const { return unmapped_read_bytes_; }
  std::uint64_t segments_created() const { return segments_created_; }
  std::uint64_t segments_removed() const { return segments_removed_; }

  void export_counters(obs::MetricsRegistry& reg) const override;

 protected:
  /// Writes append a record to the caller's segment on the staging tier and
  /// index it; reads are split staged-first/destination-fallback.  All tier
  /// traffic goes through the tiers' public timed APIs, so their own
  /// charge models, fault hooks, retries and counters compose unchanged.
  void charge(sim::Proc& proc, const std::string& path, std::uint64_t offset,
              std::uint64_t bytes, bool is_write) override;

  /// Namespace events must reach both tiers and the index: drop the path's
  /// extents, forget destination descriptors, remove any drained copy, and
  /// journal a tombstone so recover() does not resurrect the old bytes.
  void on_remove(const std::string& path) override;
  void on_truncate(const std::string& path) override;

  /// Untimed setup writes mirror to the destination store (where a direct
  /// run would have put them) and punch through any staged extents they
  /// overlap, so later tier reads see the new bytes.
  void on_untimed_write(const std::string& path, std::uint64_t offset,
                        std::span<const std::byte> data) override;

 private:
  struct Segment {
    std::string path;             ///< staging-tier file name
    int rank = -1;                ///< writing global rank
    int no = 0;                   ///< per-rank sequence number
    int fd = -1;                  ///< staging-tier descriptor (lazy on read)
    std::uint64_t tail = 0;       ///< append position
    std::uint64_t live = 0;       ///< undrained payload bytes referenced
    std::uint64_t tombstones = 0; ///< remove/truncate records journaled
    bool removed = false;         ///< GC'd from the staging tier
  };

  /// Per-writing-rank append state.
  struct RankLog {
    int cur_seg = -1;  ///< index into segments_, -1 = none open
    int next_no = 0;
  };

  /// One staged run of a logical file: maps [start, end) of the file to
  /// payload bytes at `seg_off` of segment `seg`.  Not a RunMap: splitting
  /// an extent shifts its `seg_off`, and remove_range filters by writer and
  /// releases live bytes, which a generic map would take as callbacks.
  struct Extent {
    std::uint64_t end = 0;
    int writer = -1;
    int seg = -1;
    std::uint64_t seg_off = 0;
  };
  using ExtentMap = std::map<std::uint64_t, Extent>;  // start -> extent

  enum class RecordKind : std::uint32_t {
    kData = 0,
    kRemove = 1,
    kTruncate = 2,
  };

  /// Index into segments_ of the caller's current segment, sealing and
  /// opening as needed so `record_bytes` lands whole.
  int segment_for_append(int rank, std::uint64_t record_bytes);
  int ensure_read_fd(Segment& seg);
  /// Append one complete record (timed inside the simulation, untimed
  /// outside); returns {segment index, payload offset in the segment}.
  std::pair<int, std::uint64_t> append_record(
      RecordKind kind, const std::string& path, std::uint64_t offset,
      std::span<const std::byte> payload);
  void insert_extent(const std::string& path, std::uint64_t lo,
                     std::uint64_t len, int writer, int seg,
                     std::uint64_t seg_off);
  /// Remove staged coverage of [lo, lo+len) (splitting boundary extents)
  /// where `match` accepts the extent; the workhorse behind overwrites,
  /// untimed-write punches, and post-drain erasure.
  template <typename Match>
  void remove_range(const std::string& path, std::uint64_t lo,
                    std::uint64_t len, Match match);
  void punch_hole(const std::string& path, std::uint64_t lo,
                  std::uint64_t len);
  void forget_extents(const std::string& path);
  void release_live(int seg, std::uint64_t bytes);
  void maybe_gc(int seg);
  void gc_segment(Segment& seg);
  void drop_dest_fds(const std::string& path);
  int dest_write_fd(const std::string& path);
  void backlog_gauge() const;

  /// Timed tier read of exactly out.size() bytes through fd, absorbing
  /// injected short reads and (within stage_retry) transient errors.
  void tier_read(pfs::FileSystem& fs, int fd, std::uint64_t offset,
                 std::span<std::byte> out);

  StagedFsParams params_;
  pfs::FileSystem& staging_;
  pfs::FileSystem& dest_;

  /// Deque, not vector: every timed tier call can yield to another proc
  /// that appends a segment, and held Segment references must survive the
  /// growth (deque::push_back never invalidates references).
  std::deque<Segment> segments_;
  std::map<int, RankLog> rank_logs_;
  std::map<std::string, ExtentMap> extents_;
  std::map<std::string, int> dest_read_fds_;
  std::map<std::string, int> dest_write_fds_;
  std::map<int, double> drain_horizon_;  ///< per-rank async completion time

  std::uint64_t staged_bytes_ = 0;
  std::uint64_t drained_bytes_ = 0;
  std::uint64_t staged_live_bytes_ = 0;
  std::uint64_t stage_retries_ = 0;
  std::uint64_t drain_retries_ = 0;
  std::uint64_t unmapped_read_bytes_ = 0;
  std::uint64_t segments_created_ = 0;
  std::uint64_t segments_removed_ = 0;
};

}  // namespace paramrio::stage
