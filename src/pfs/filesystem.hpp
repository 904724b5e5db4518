// Abstract file system exposed to the I/O libraries.
//
// All file systems store real bytes in a stor::ObjectStore (so contents are
// verifiable) and differ only in their *timing* models, implemented in the
// charge() hook: where the bytes physically live, how they are striped, what
// networks and queues a request crosses.  Every data call charges the
// calling simulated processor's virtual clock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "base/run_map.hpp"
#include "fault/retry.hpp"
#include "sim/engine.hpp"
#include "stor/object_store.hpp"

namespace paramrio::obs {
class MetricsRegistry;
}

namespace paramrio::fault {
class IoFaultHook;
}

namespace paramrio::pfs {

enum class OpenMode {
  kRead,       ///< existing file, read-only
  kCreate,     ///< create or truncate, read-write
  kReadWrite,  ///< existing file, read-write
};

/// Physical data layout of a file, as reported by the file system to
/// layout-aware clients (ROMIO-style collective buffering queries this to
/// align file domains to stripe boundaries).  An unstriped file system
/// reports stripe_size == 0: offsets carry no locality information.
struct Layout {
  std::uint64_t stripe_size = 0;  ///< bytes per stripe unit; 0 = unstriped
  int n_servers = 1;              ///< I/O servers the file is spread over
  int first_server = 0;           ///< server owning stripe 0 (round-robin)

  bool striped() const { return stripe_size > 0 && n_servers > 1; }
};

/// Observer hook for I/O tracing: receives every data request a FileSystem
/// serves plus descriptor-lifecycle events (see trace::IoTracer for the
/// standard implementation and check::IoChecker for the correctness
/// analyzer).  Like all timing, observation only happens inside the
/// simulation; untimed setup accesses are invisible.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_io(double time, int rank, bool is_write,
                     const std::string& path, std::uint64_t offset,
                     std::uint64_t bytes, int fd) = 0;
  /// Descriptor lifecycle; default no-op so throughput-only observers need
  /// not care.
  virtual void on_open(double time, int rank, const std::string& path,
                       OpenMode mode, int fd) {
    (void)time, (void)rank, (void)path, (void)mode, (void)fd;
  }
  virtual void on_close(double time, int rank, const std::string& path,
                        int fd) {
    (void)time, (void)rank, (void)path, (void)fd;
  }
};

/// Reads `out.size()` bytes at an offset of one open file, through whichever
/// interface (and clock) the caller uses.  Record decoders take one, so each
/// caller decides how its reads are timed, retried and shared.
using ReadAt = std::function<void(std::uint64_t, std::span<std::byte>)>;

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Open a file; returns a descriptor valid across all ranks (execution is
  /// serialised, so the descriptor table needs no locking).
  int open(const std::string& path, OpenMode mode);
  void close(int fd);

  bool exists(const std::string& path) const { return store_.exists(path); }

  /// Remove a file, dropping any of its cached pages so a later file created
  /// at the same path cannot see stale cache hits.
  void remove(const std::string& path) {
    cache_.erase(path);
    ++cache_gen_;  // open descriptors re-resolve their run-map pointer
    on_remove(path);
    store_.remove(path);
  }

  std::uint64_t size(int fd) const;

  /// Timed positional read; returns the bytes actually transferred.  The
  /// whole range [offset, offset+out.size()) must exist (past-EOF reads
  /// throw), and without fault injection the transfer is always complete; an
  /// injected short read returns a prefix length, which the caller (or the
  /// fs-level retry, when enabled) must resume.
  std::uint64_t read_at(int fd, std::uint64_t offset,
                        std::span<std::byte> out);

  /// read_at until `out` is full, resuming short reads; throws IoError when
  /// a read makes no progress.  Serial readers decode what they read, so a
  /// short read's unfilled tail would otherwise pass for a malformed file.
  void read_exact(int fd, std::uint64_t offset, std::span<std::byte> out);

  /// Timed positional write (extends the file as needed); returns the bytes
  /// actually transferred — a short count only ever results from an injected
  /// fault, and byte accounting (ProcStats, observers, charge) always
  /// reflects what actually landed, not what was requested.
  std::uint64_t write_at(int fd, std::uint64_t offset,
                         std::span<const std::byte> data);

  /// Human-readable model name ("xfs", "gpfs", "pvfs", "local-disk").
  virtual std::string name() const = 0;

  /// Physical layout of `path` (striping geometry).  The identity default —
  /// stripe_size 0, one server — means "no useful locality information";
  /// striped file systems override it so collective buffering can align
  /// file domains to stripe and server boundaries.
  virtual Layout layout(const std::string& path) const {
    (void)path;
    return {};
  }

  /// Direct access to stored bytes, for tests and format validators.
  stor::ObjectStore& store() { return store_; }
  const stor::ObjectStore& store() const { return store_; }

  /// Metadata operation cost (open/close/create), charged per call.
  virtual double metadata_cost() const { return 0.0; }

  /// Bytes served from the cache so far (tests/benches).
  std::uint64_t cache_hits() const { return cache_hits_; }

  /// Invalidate all cached pages (simulate a cold restart between phases).
  virtual void drop_caches() {
    cache_.clear();
    ++cache_gen_;
  }

  /// Attach (or detach with nullptr) an I/O observer; every subsequent data
  /// request inside the simulation is reported to it.
  void attach_observer(IoObserver* observer) { observer_ = observer; }

  /// Attach (or detach with nullptr) a fault-injection hook, consulted for
  /// every in-simulation data request *before* any bytes move.  The data
  /// operations are non-virtual, so injection is a hook inside the base
  /// class rather than a decorator.
  void attach_fault_hook(fault::IoFaultHook* hook) { fault_hook_ = hook; }
  fault::IoFaultHook* fault_hook() const { return fault_hook_; }

  /// Enable file-system-level retry: read_at/write_at absorb injected
  /// transient errors (with exponential virtual-clock backoff) and resume
  /// short transfers internally, so libraries that talk to the fs directly
  /// — the serial HDF4 writer, the hierarchy file, HDF5 metadata — survive
  /// faults without their own retry loops.  Default-off: a zero-valued
  /// policy propagates transient errors and reports short transfers.
  void set_retry(const fault::RetryPolicy& policy) { retry_ = policy; }
  const fault::RetryPolicy& retry() const { return retry_; }

  /// Re-attempts the fs-level retry loop performed (tests/obs export).
  std::uint64_t fs_retries() const { return fs_retries_; }

  /// I/O server holding byte `offset` of `path` under this fs's layout, or
  /// -1 when unstriped (fault specs match on this).
  int server_of(const std::string& path, std::uint64_t offset) const;

  /// Publish model-level counters into `reg` under scope "fs:<name>".
  /// The base exports cache hits; subclasses add their own (GPFS write-token
  /// transfers, PVFS server request counts) by overriding and chaining up.
  virtual void export_counters(obs::MetricsRegistry& reg) const;

 protected:
  FileSystem() = default;

  /// Enable the buffer-cache model: a read whose whole range was read or
  /// written before is served at `bandwidth` from memory instead of going
  /// through charge().  Partial overlaps count as misses.  Local file
  /// systems and GPFS clients cache; 2002 PVFS did not.
  void enable_cache(double bandwidth) {
    cache_enabled_ = true;
    cache_bandwidth_ = bandwidth;
  }

  /// Charge `proc` for moving `bytes` at `offset` of `path`; advance its
  /// clock to the operation's completion.
  virtual void charge(sim::Proc& proc, const std::string& path,
                      std::uint64_t offset, std::uint64_t bytes,
                      bool is_write) = 0;

  /// Notification hooks for namespace events the non-virtual fast path
  /// handles in the base class.  Subclasses that keep *per-path* model state
  /// outside the base buffer cache (LocalDiskFs ownership + page caches, the
  /// staging tier's extent map) override these to drop it, so a file
  /// re-created at the same path cannot observe state from its previous
  /// generation.  on_remove fires from remove(); on_truncate from
  /// open(kCreate) over an existing path; on_untimed_write from the untimed
  /// (outside-simulation) write_at path after the bytes land in the store.
  virtual void on_remove(const std::string& path) { (void)path; }
  virtual void on_truncate(const std::string& path) { (void)path; }
  virtual void on_untimed_write(const std::string& path, std::uint64_t offset,
                                std::span<const std::byte> data) {
    (void)path, (void)offset, (void)data;
  }

 private:
  struct OpenFile {
    std::string path;
    bool writable = false;
    /// Buffer-cache run map resolved once per descriptor instead of a
    /// string-keyed map lookup on every attempt (the per-op hot path at
    /// AMR256 scale).  Re-resolved lazily whenever `cache_gen` falls behind
    /// the file system's generation counter — remove(), kCreate truncation
    /// and drop_caches() all bump it, which also covers the pointer's
    /// stability (std::map nodes only move on erase).
    RunMap<bool>* cache_iv = nullptr;
    std::uint64_t cache_gen = 0;
  };
  const OpenFile& descriptor(int fd, const char* op) const;
  OpenFile& descriptor_mut(int fd, const char* op);
  RunMap<bool>& cache_of(OpenFile& f);

  /// One timed attempt at (part of) a data operation: consults the fault
  /// hook, moves up to the requested bytes, and accounts exactly the bytes
  /// moved.  Returns the transfer length; throws TransientIoError /
  /// CrashError when the hook says so.
  std::uint64_t read_attempt(OpenFile& f, int fd, std::uint64_t offset,
                             std::span<std::byte> out);
  std::uint64_t write_attempt(OpenFile& f, int fd, std::uint64_t offset,
                              std::span<const std::byte> data);
  /// The fault hook's verdict on one attempt: the bytes it lets move (after
  /// any injected stall), or a thrown TransientIoError / CrashError.
  std::uint64_t admitted_bytes(sim::Proc& proc, const std::string& path,
                               bool is_write, std::uint64_t offset,
                               std::uint64_t bytes);

  /// Per-tenant traffic, keyed by engine job index; recorded only to feed
  /// multi-job exports (single-job registries must stay byte-identical, so
  /// export_counters only emits these scopes when >1 job was seen).
  struct JobIo {
    std::string name;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t requests = 0;
  };
  void account_job(const sim::Proc& proc, bool is_write, std::uint64_t bytes);

  stor::ObjectStore store_;
  std::map<int, OpenFile> open_files_;
  int next_fd_ = 3;  // tradition
  IoObserver* observer_ = nullptr;
  fault::IoFaultHook* fault_hook_ = nullptr;
  fault::RetryPolicy retry_;
  std::uint64_t fs_retries_ = 0;
  bool cache_enabled_ = false;
  double cache_bandwidth_ = 0.0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;      ///< read-side cache consults
  std::uint64_t cache_hit_lookups_ = 0;  ///< consults fully served from cache
  std::map<std::string, RunMap<bool>> cache_;  ///< resident ranges per file
  std::uint64_t cache_gen_ = 1;  ///< bumped on remove/truncate/drop_caches
  std::map<int, JobIo> job_io_;
};

}  // namespace paramrio::pfs
