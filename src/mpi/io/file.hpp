// ROMIO-style MPI-IO on top of the mini-MPI and the simulated file systems.
//
// A File is opened collectively over a communicator.  Each rank owns a file
// view — a displacement plus a Datatype tiled along the file — and addresses
// data by offsets in its *view stream* (etype = byte), exactly like MPI-IO.
//
// Independent accesses use ROMIO's data-sieving optimisation: a
// noncontiguous request is served by a small number of large contiguous
// file accesses into a sieve buffer (read-modify-write for writes is not
// needed because write runs are coalesced and written individually).
//
// Collective accesses (read_at_all / write_at_all) implement the two-phase
// strategy: ranks exchange their flattened access patterns, the aggregate
// byte range is partitioned into per-aggregator file domains, and each
// iteration moves one collective-buffer-sized window per aggregator —
// contiguous I/O in the I/O phase, alltoall-style redistribution in the
// communication phase.  This is the optimisation the paper credits for the
// MPI-IO wins (and whose per-request costs explain the losses on GPFS).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/retry.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::mpi::io {

struct Hints {
  /// cb_align == kCbAlignAuto: query the file system's Layout and align
  /// collective-buffering file domains to its stripe size (and, when
  /// cb_nodes == 0 on a striped fs, assign at most one aggregator domain per
  /// I/O server, cyclically by stripe).
  static constexpr std::uint64_t kCbAlignAuto = 0;

  std::uint64_t cb_buffer_size = 4 * MiB;  ///< two-phase window per aggregator
  int cb_nodes = 0;                        ///< aggregator count; 0 = all ranks
  /// File-domain / window alignment for two-phase collective I/O, in bytes.
  /// 1 (default) reproduces classic ROMIO: domains are equal byte shares of
  /// the aggregate hull, oblivious to striping — the Figure-7 pathology.
  /// kCbAlignAuto (0) asks the fs; any other value aligns domain boundaries
  /// and per-iteration windows to that many bytes.
  std::uint64_t cb_align = 1;
  std::uint64_t ds_buffer_size = 4 * MiB;  ///< data-sieving buffer
  bool data_sieving_reads = true;
  bool data_sieving_writes = true;

  /// Write-behind buffering for *independent* writes (the authors' two-stage
  /// write-behind method, Liao et al.): contiguous writes accumulate in a
  /// local buffer and are flushed as few large requests when the buffer
  /// fills, on any read, or at close.  0 disables (MPI-visible semantics are
  /// unchanged either way within one rank; cross-rank readers must
  /// synchronise through the collective calls as usual).
  std::uint64_t wb_buffer_size = 0;

  /// Retry/backoff for transient file-system faults (injected EIO, short
  /// transfers, server outages).  Default-off: transient errors propagate.
  /// When enabled, every fs access a File performs — independent, sieved,
  /// write-behind flush and two-phase aggregator I/O — retries with
  /// exponential virtual-clock backoff, short transfers are resumed (with a
  /// read-back verification of the landed prefix when verify_short_writes
  /// is set), and collective calls degrade to independent access while the
  /// fault layer reports an I/O-server outage.
  fault::RetryPolicy retry;

  /// Overlap communication and file I/O.  When set, each aggregator's
  /// two-phase window I/O runs in flight, one window at a time (the
  /// exchange for window i+1 runs while the aggregator's write of window i
  /// is in flight; reads run one window ahead), the nonblocking iwrite_at
  /// and the split-collective begin/end calls genuinely defer their I/O,
  /// and prefetch() issues read-ahead.  Default-off: every one of those
  /// paths is byte- and virtual-time-identical to the synchronous
  /// implementation.
  bool overlap = false;
};

/// Statistics a File accumulates per rank-agnostic call site (useful for the
/// ablation benches).
struct FileStats {
  std::uint64_t independent_ops = 0;
  std::uint64_t collective_ops = 0;
  std::uint64_t sieve_windows = 0;
  std::uint64_t two_phase_windows = 0;
  std::uint64_t wb_flushes = 0;   ///< write-behind buffer flushes
  std::uint64_t wb_absorbed = 0;  ///< writes absorbed into the buffer

  /// Collective calls resolved without any two-phase window: the aggregate
  /// request was empty, or per-rank hulls did not interleave and the call
  /// fell back to independent access.
  std::uint64_t collective_fastpath = 0;
  /// Two-phase windows whose boundaries all fell on the underlying stripe
  /// grid (or on the aggregate hull edge).  Counted only when the fs reports
  /// a stripe layout, regardless of cb_align, so an unaligned baseline shows
  /// its straddling windows.
  std::uint64_t cb_aligned_windows = 0;
  /// Two-phase windows with at least one boundary strictly inside a stripe:
  /// each such boundary splits the stripe between two aggregators (two
  /// server requests, and write-token false sharing on GPFS).
  std::uint64_t cb_straddle_windows = 0;
  /// Write windows that stripe alignment kept from sharing a boundary
  /// stripe with a neighbouring aggregator — an estimate of the write-token
  /// acquisitions the alignment avoided.  Only counted while cb_align is
  /// active (resolved alignment > 1).
  std::uint64_t cb_token_saves = 0;
  /// High-water mark of this rank's collective-buffer allocation; with the
  /// window sized to the actual data hull this stays well under
  /// cb_buffer_size for small requests.
  std::uint64_t cb_peak_window_bytes = 0;

  /// Collective calls that degraded to independent access because the fault
  /// layer reported an I/O-server outage (decided collectively, so every
  /// rank takes the same path).
  std::uint64_t collective_fallbacks = 0;
  /// Retry-loop counters (re-attempts, transient errors, short transfers,
  /// write verifications, virtual backoff slept).
  fault::RetryStats retry;

  // ---- overlap (Hints::overlap) counters --------------------------------

  /// Split-collective pairs completed (one per begin/end).
  std::uint64_t split_collectives = 0;
  /// Two-phase windows whose aggregator I/O was deferred so the next
  /// window's exchange could run concurrently.
  std::uint64_t overlap_windows = 0;
  /// read_at calls served from a prefetch() buffer.
  std::uint64_t prefetch_hits = 0;
  /// Prefetched ranges discarded unused (partial-overlap reads, intervening
  /// writes, or still pending at close).
  std::uint64_t prefetch_misses = 0;
  /// map_view flattenings skipped because the (filetype signature, range)
  /// matched the memoized result of the previous call.
  std::uint64_t view_flatten_cache_hits = 0;
  /// Virtual seconds of in-flight I/O hidden behind other work: for every
  /// deferred operation, min(completion, wait time) - issue time.
  double overlap_saved_time = 0.0;
  /// Nonblocking requests still active when close() ran.  close() settles
  /// their in-flight time (no data is lost), but an unwaited request is an
  /// MPI semantics violation — counted here and reported through the
  /// verifier instead of silently dropped.
  std::uint64_t requests_leaked_at_close = 0;
};

/// Compact deterministic key for a hint set, used to name the registry scope
/// a File's stats persist into ("file:<path>|<hints_key>").
std::string hints_key(const Hints& hints);

/// Handle to one nonblocking independent write (iwrite_at).
/// Data moves at issue time — the simulation stays content-deterministic —
/// and the handle carries the operation's virtual completion time; wait()
/// charges the issuer exactly the stall that other work did not hide.
class Request {
 public:
  Request() = default;
  /// True until the request has been waited on (a default-constructed or
  /// already-completed request is inactive; waiting on it is a no-op).
  bool active() const { return active_; }

 private:
  friend class File;
  double issued_ = 0.0;
  double completion_ = 0.0;
  bool active_ = false;
};

class File {
 public:
  /// Collective open: every rank must call with identical arguments.
  File(Comm& comm, pfs::FileSystem& fs, std::string path, pfs::OpenMode mode,
       Hints hints = {});

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Collective close (synchronises, releases the descriptor).
  void close();

  /// Install this rank's file view: visible bytes are `filetype` tiled from
  /// absolute file offset `disp`.
  void set_view(std::uint64_t disp, Datatype filetype);

  /// Drop back to the identity view at displacement `disp`.
  void set_view(std::uint64_t disp);

  // ---- independent I/O (offsets are view-stream bytes) ----------------

  void read_at(std::uint64_t offset, std::span<std::byte> buf);
  void write_at(std::uint64_t offset, std::span<const std::byte> buf);

  // ---- nonblocking independent I/O -------------------------------------
  //
  // With Hints::overlap set the write's file-system time runs in flight
  // (deferred on the engine's shadow clock) and the returned Request
  // completes at its virtual finish time; without it the call completes
  // synchronously and wait() is a no-op.  As in MPI, the buffer must not be
  // reused until the request is waited on.

  Request iwrite_at(std::uint64_t offset, std::span<const std::byte> buf);

  /// Complete a request: charges this rank the remaining in-flight time (if
  /// any) as kIo and credits the hidden part to overlap_saved_time.
  void wait(Request& req);
  void wait_all(std::span<Request> reqs);

  // ---- collective I/O (all ranks must participate) ---------------------

  void read_at_all(std::uint64_t offset, std::span<std::byte> buf);
  void write_at_all(std::uint64_t offset, std::span<const std::byte> buf);

  // ---- split collective I/O (Thakur/Gropp/Lusk begin/end interface) -----
  //
  // A begin call starts the collective (all ranks participate; with
  // Hints::overlap the tail of the aggregator's window I/O stays in
  // flight), the matching end completes it.  At most one split collective
  // may be active per File, and blocking collectives must not be issued
  // while one is.  Zero-length participation (an empty buffer) joins and
  // completes like any other rank.

  void read_at_all_begin(std::uint64_t offset, std::span<std::byte> buf);
  void read_at_all_end();
  void write_at_all_begin(std::uint64_t offset,
                          std::span<const std::byte> buf);
  void write_at_all_end();

  /// Read-ahead hint: asynchronously fetch [offset, offset+len) of the view
  /// stream into an internal buffer.  A later read_at of exactly that range
  /// is served from the buffer (prefetch_hits), charging only the stall
  /// left after overlapped work; partially overlapping reads and
  /// intervening writes discard the buffer (prefetch_misses).  No-op when
  /// Hints::overlap is off or len == 0.
  void prefetch(std::uint64_t offset, std::uint64_t len);

  /// Flush this rank's write-behind buffer (no-op when disabled or empty).
  void flush();

  /// Current physical file size in bytes (flushes write-behind first so the
  /// answer reflects this rank's writes).
  std::uint64_t size();

  const Hints& hints() const { return hints_; }
  const FileStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  /// Persist this rank's FileStats into the attached obs collector's
  /// registry (scope "file:<path>|<hints_key>"), so the numbers outlive the
  /// File.  Ranks add into the same scope; called once per rank, from
  /// close() or the destructor fallback.
  void persist_stats();
  /// Map [offset, offset+len) of this rank's view stream to absolute file
  /// segments, in stream order, coalesced.  Memoizes the flattening of the
  /// previous call (view_flatten_cache_hits).
  std::vector<Segment> map_view(std::uint64_t offset, std::uint64_t len);

  void independent_read(const std::vector<Segment>& segs,
                        std::span<std::byte> buf);
  void independent_write(const std::vector<Segment>& segs,
                         std::span<const std::byte> buf);

  /// The two-phase engine; handles both directions.
  void two_phase(bool is_write, const std::vector<Segment>& segs,
                 std::span<std::byte> rbuf, std::span<const std::byte> wbuf);

  /// All fs data access goes through these, each one fault::transfer under
  /// hints.retry: they resume short transfers (ROMIO's POSIX-style write
  /// loop, always on), verify the landed prefix of retryable short writes,
  /// and — when hints.retry is enabled — absorb TransientIoError with
  /// exponential virtual-clock backoff.
  void fs_read(std::uint64_t offset, std::span<std::byte> out);
  void fs_write(std::uint64_t offset, std::span<const std::byte> data);

  /// Try to absorb an absolute-offset write run into the write-behind
  /// buffer; returns false when buffering is off or the run cannot fit.
  bool wb_absorb(std::uint64_t offset, std::span<const std::byte> data);

  /// True when deferred (in-flight) execution is available and requested.
  bool overlap_enabled() const;

  /// Reject I/O on a closed File: reports kPostCloseIo through the verifier
  /// (when attached) and throws IoError naming the call.
  void check_open(const char* op) const;

  /// Tell the attached verifier (if any) that this rank entered the file
  /// collective `op` carrying `data_bytes` of payload.
  void note_collective(const char* op, std::uint64_t data_bytes) const;

  /// Settle a deferred operation issued at `issued` completing at
  /// `completion`: credit the hidden portion to overlap_saved_time and
  /// charge the rest as kIo stall.
  void settle_deferred(double issued, double completion);

  /// Run `io` in flight: on the shadow clock, inside a kIo span named
  /// `span`, reported to the verifier as a deferred issue.  Every in-flight
  /// op goes through here.  Returns the issue and completion times, which
  /// the caller settles later.
  std::pair<double, double> in_flight(const char* span,
                                      const std::function<void()>& io);

  /// Wait any collective window I/O left in flight by a pipelined
  /// two_phase (no-op otherwise).
  void drain_collective();

  /// Discard prefetched ranges intersecting the absolute-file segments
  /// `segs` (counted as misses); called from every write path.
  void invalidate_prefetch(const std::vector<Segment>& segs);

  /// Drop every pending prefetch entry, counting misses.
  void drop_prefetch();

  Comm& comm_;
  pfs::FileSystem& fs_;
  std::string path_;
  int fd_ = -1;
  Hints hints_;
  std::uint64_t view_disp_ = 0;
  std::optional<Datatype> view_type_;
  FileStats stats_;
  bool open_ = false;

  /// Write-behind state: pending coalesced runs, sorted by offset.
  std::map<std::uint64_t, std::vector<std::byte>> wb_runs_;
  std::uint64_t wb_bytes_ = 0;

  /// View-flatten memo: a small LRU of recent flattenings (disp-relative)
  /// keyed by filetype signature and requested stream range.  The previous
  /// single-entry memo thrashed to zero hits the moment a rank alternated
  /// between two installed views (ENZO interleaves each baryon field's
  /// subarray view with the boundary's) — every call evicted the other's
  /// entry and re-flattened.  Eight entries cover the alternation depths the
  /// I/O layers produce while keeping lookup a trivial scan.
  struct FlattenEntry {
    std::uint64_t sig = 0;
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::vector<Segment> segs;  ///< relative to disp 0
  };
  static constexpr std::size_t kFlattenCacheCapacity = 8;
  std::uint64_t view_sig_ = 0;  ///< signature of the installed filetype
  std::vector<FlattenEntry> flatten_cache_;  ///< most-recently-used first

  /// One in-flight prefetched range (absolute-file segments + its bytes).
  struct PrefetchEntry {
    std::vector<Segment> segs;
    std::vector<std::byte> data;
    double issued = 0.0;
    double completion = 0.0;
  };
  std::vector<PrefetchEntry> prefetched_;

  /// Completion horizon of the pipelined two-phase window still in flight
  /// (< 0: none); split-collective state.
  double collective_pending_issue_ = 0.0;
  double collective_pending_completion_ = -1.0;
  bool split_active_ = false;

  /// Latest completion of any deferred op (close() drains to here so the
  /// file is only "closed" once all in-flight I/O has virtually finished).
  double inflight_horizon_ = 0.0;

  /// Requests issued but not yet waited (wait() decrements); close() counts
  /// what is left as requests_leaked_at_close.
  std::uint64_t pending_requests_ = 0;
};

}  // namespace paramrio::mpi::io
