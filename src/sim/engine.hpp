// Conservative virtual-time discrete-event engine.
//
// The reproduction executes the real parallel code paths (message passing,
// two-phase I/O, file-format encoding) on a simulated parallel machine.  The
// engine enforces that at any instant exactly one simulated processor
// ("proc") executes user code — always the runnable proc with the smallest
// (clock, index) pair.  This gives:
//
//   * determinism: runs are bit-reproducible regardless of OS scheduling,
//   * causal ordering: shared virtual-time resources (disks, NICs) observe
//     requests in global virtual-time order, so contention modelling with
//     simple next-free timelines is exact,
//   * zero data races: all user code is serialised by the scheduler, so the
//     layered libraries need no locking of their own.
//
// Every proc is a lightweight run-to-yield fiber on the caller's OS thread.
// A yield is a user-space context switch, current_proc() is a
// scheduler-maintained pointer, and abort unwinds procs one by one on that
// same thread.  Nothing is shared with another OS thread, so the engine
// takes no locks; a nested Engine::run is a separate Engine on the same
// thread.  One process comfortably simulates tens of thousands of ranks in
// bounded memory (stacks are lazily-committed mmaps).
//
// Procs advance their clocks with Proc::advance(); blocking primitives
// (Proc::block / Engine::signal) underpin message receive.  If every
// unfinished proc is blocked the engine throws DeadlockError.
//
// Multi-job tenancy: run_jobs() schedules several independent jobs — each
// with its own rank set, clock offset and fair-share weight — inside one
// engine, so N simulated applications can contend for one pfs::FileSystem.
// Proc::rank() stays job-local (the mpi layer is unchanged); shared
// resources identify clients by Proc::global_rank().
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"

namespace paramrio::sim {

/// Where a proc's virtual time went; reported per proc after a run.
enum class TimeCategory { kCpu, kComm, kIo };

/// Per-proc accounting, readable by benches and tests after Engine::run.
struct ProcStats {
  double cpu_time = 0.0;   ///< seconds spent in compute / memory traffic
  double comm_time = 0.0;  ///< seconds spent in message passing
  double io_time = 0.0;    ///< seconds spent in file-system requests

  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t io_bytes_read = 0;
  std::uint64_t io_bytes_written = 0;
  std::uint64_t io_requests = 0;

  /// All accounted virtual time (cpu + comm + io).
  double total() const { return cpu_time + comm_time + io_time; }
};

/// A virtual-time FIFO-served resource: a disk, an I/O server, a NIC, a
/// shared network backplane, an SMP node's I/O channel.  A request issued at
/// virtual time `now` with service duration `service` completes at
/// max(now, next_free) + service, and pushes next_free to that completion.
///
/// Because the engine serialises execution in virtual-time order, requests
/// arrive at the timeline already sorted by issue time, so this single
/// scalar reproduces FIFO queueing delay exactly.
///
/// Background traffic (Proc::background_io(): the staging tier's drain) is a
/// second class with strict lower priority.  A foreground request never
/// waits for a background reservation — it reads and advances only
/// next_free.  A background request starts at the later of `now` and both
/// horizons, and advances only the background horizon.  A timeline that
/// never sees background traffic behaves exactly as a plain FIFO.
class Timeline {
 public:
  double acquire(double now, double service, bool background = false) {
    const double start = earliest_start(now, background);
    (background ? background_free_ : next_free_) = start + service;
    return start + service;
  }

  /// When a request of the given class issued at `now` could start; lets a
  /// caller book one start across several timelines (a wire transfer holds
  /// both NICs and the backplane at once).
  double earliest_start(double now, bool background = false) const {
    const double t = now > next_free_ ? now : next_free_;
    return background && background_free_ > t ? background_free_ : t;
  }

  /// Raise next_free to at least `t` (fair-share arbiters track per-job
  /// horizons themselves but keep the aggregate timeline truthful).
  void raise(double t) {
    if (t > next_free_) next_free_ = t;
  }

  /// The foreground horizon.
  double next_free() const { return next_free_; }
  void reset() { next_free_ = background_free_ = 0.0; }

 private:
  double next_free_ = 0.0;
  double background_free_ = 0.0;
};

class Engine;

/// Handle a simulated processor's code uses to interact with virtual time.
/// One per rank; obtain the calling proc's via sim::current_proc().
class Proc {
 public:
  /// Rank within this proc's job (what the mpi layer sees).
  int rank() const { return rank_; }
  /// Ranks in this proc's job.
  int nprocs() const;
  /// Dense index across every job of the run; equals rank() in a single-job
  /// run.  Shared resources (file systems, storage fabrics) identify their
  /// clients by this.
  int global_rank() const { return global_; }
  /// Job index within the run (0 in a single-job run).
  int job() const { return job_; }
  /// Jobs co-scheduled in this run (1 in a single-job run) — a static
  /// property of the run, unlike a shared resource's seen-tenant count,
  /// so gating on it is invariant under schedule perturbation.
  int njobs() const;
  /// This job's fair-share weight at shared I/O servers.
  double job_weight() const { return job_weight_; }
  /// This job's virtual start time (clock domain offset; now() is absolute).
  double job_start() const { return job_start_; }
  /// This job's label for metrics scopes ("" in a single-job run).
  const std::string& job_name() const;

  double now() const { return deferred_ ? shadow_clock_ : clock_; }

  /// Spend `dt` seconds of virtual time, attributed to `cat`.
  void advance(double dt, TimeCategory cat = TimeCategory::kCpu);

  /// Jump the clock forward to at least `t` (message arrival, resource
  /// completion).  Waiting time is attributed to `cat`.
  void clock_at_least(double t, TimeCategory cat);

  /// Acquire a FIFO resource for `service` seconds starting now, in this
  /// proc's traffic class (background_io()); the clock advances to the
  /// request's completion time.
  void use_resource(Timeline& tl, double service, TimeCategory cat);

  /// Mark this proc blocked and yield; returns after some other proc calls
  /// Engine::signal on it.  The caller must re-check its wake condition.
  /// Not allowed while deferred (an in-flight op cannot message).
  void block();

  // ---- deferred ("in-flight") execution --------------------------------
  //
  // Between begin_deferred() and end_deferred() the proc models work handed
  // to an asynchronous agent (a DMA engine, an I/O servicing thread): code
  // runs and moves bytes immediately — content stays deterministic because
  // the scheduler still serialises execution — but time costs accrue on a
  // *shadow* clock instead of the real one.  Timelines are still acquired
  // (at shadow times >= the real clock, preserving their FIFO invariant,
  // since this proc held the minimum clock when it was scheduled), no
  // ProcStats time is accounted, and execution is never yielded.
  // end_deferred() returns the operation's virtual completion time; the
  // issuer later settles it with clock_at_least(completion, cat), which
  // charges exactly the stall that was not hidden behind other work.

  /// Enter deferred mode (must not already be deferred).  The shadow clock
  /// starts at the real clock.
  void begin_deferred();

  /// Leave deferred mode; returns the shadow clock — the virtual time at
  /// which the deferred work completes.
  double end_deferred();

  /// True while inside a begin_deferred()/end_deferred() region.
  bool deferred() const { return deferred_; }

  // ---- background I/O --------------------------------------------------
  //
  // A proc doing housekeeping traffic (the staging tier's drain) marks
  // itself background.  Every shared Timeline it books — NICs, the
  // backplane, I/O-server queues, the SMP I/O channel, the token manager —
  // then serves it in the background class: foreground requests never wait
  // for it, it waits for both classes, and servers count its bytes
  // separately.  Runs without background traffic are unaffected.

  /// Enter background-I/O mode.  Not nestable.
  void set_background_io() { background_io_ = true; }
  void clear_background_io() { background_io_ = false; }
  bool background_io() const { return background_io_; }

  ProcStats& stats() { return stats_; }
  const ProcStats& stats() const { return stats_; }

  /// Deterministic per-rank random stream.
  Rng& rng() { return rng_; }

  Engine& engine() { return *engine_; }

 private:
  friend class Engine;
  Proc(Engine* e, int rank, std::uint64_t seed)
      : engine_(e), rank_(rank), global_(rank), rng_(seed) {}

  Engine* engine_;
  int rank_;
  int global_;
  int job_ = 0;
  double job_weight_ = 1.0;
  double job_start_ = 0.0;
  double clock_ = 0.0;
  double shadow_clock_ = 0.0;  ///< in-flight time while deferred_
  bool deferred_ = false;
  bool background_io_ = false;
  ProcStats stats_;
  Rng rng_;
};

/// Passive observer of engine-level events, for the verify layer (the
/// engine itself stays dependency-free).  Install with set_run_observer()
/// outside a run; all callbacks arrive serialised, from the proc holding
/// the schedule.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// A proc's body returned cleanly.  `rank` is the proc's global rank
  /// (equal to its job rank in a single-job run).  `deferred` is true when
  /// the proc finished inside an unsettled begin_deferred() region — its
  /// clock no longer reflects the in-flight work it issued.
  virtual void on_proc_finished(int rank, bool deferred, double clock) = 0;

  /// The engine found no runnable proc with unfinished procs remaining.
  /// The returned text (e.g. blocked ops and the wait-for cycle) is
  /// appended to the DeadlockError the run rethrows.
  virtual std::string diagnose_deadlock() = 0;
};

/// Install `obs` as the process-wide run observer (nullptr detaches).  Call
/// outside Engine::run.
void set_run_observer(RunObserver* obs);

/// The engine itself.  Construct, then call run() with the per-rank body.
class Engine {
 public:
  struct Options {
    int nprocs = 1;
    std::uint64_t seed = 0x5eed5eed5eedULL;  ///< root of all per-rank RNGs

    /// Schedule perturbation: when nonzero, scheduling ties — runnable procs
    /// whose virtual clocks are exactly equal at a dispatch — are broken
    /// by a deterministic seeded shuffle instead of by lowest rank.  Every
    /// perturbed schedule is a legal serialisation of the same virtual-time
    /// order, so a correct program produces byte-identical results under
    /// every seed; a program whose output depends on tie order is a
    /// concurrency bug this flushes out (see docs/VERIFY.md).  0 (default)
    /// keeps the classic lowest-rank tie-break; when 0, the
    /// PARAMRIO_SCHED_SEED environment variable, if set and nonzero,
    /// supplies the seed (so whole test suites can run perturbed).
    std::uint64_t perturb_seed = 0;

    /// When false, PARAMRIO_SCHED_SEED is ignored; tests that assert the
    /// classic lowest-rank tie order pin it with this.
    bool env_perturb = true;

    /// The seed the engine will actually use: `perturb_seed` when nonzero,
    /// else the PARAMRIO_SCHED_SEED environment variable (0 on absence, a
    /// malformed value, or `env_perturb` false).
    std::uint64_t effective_perturb_seed() const;
  };

  /// One application of a multi-tenant run: `nprocs` ranks executing `body`,
  /// entering the shared virtual timeline at `start_time` with fair-share
  /// `weight` at shared I/O servers.
  struct JobSpec {
    std::string name;  ///< label for metrics scopes; "" = anonymous
    int nprocs = 1;
    std::function<void(Proc&)> body;
    double start_time = 0.0;
    double weight = 1.0;
  };

  struct Result {
    std::vector<double> finish_times;  ///< per-rank final virtual clock
    std::vector<ProcStats> stats;      ///< per-rank accounting
    double makespan = 0.0;             ///< max finish time
  };

  /// Per-job slice of a multi-tenant run's results.  Clocks are absolute
  /// (shared timeline); subtract `start_time` for job-local elapsed time.
  struct JobResult {
    std::string name;
    double start_time = 0.0;
    Result result;
  };

  /// Run `body(proc)` on options.nprocs virtual processors and return the
  /// per-rank clocks and stats.  Rethrows the first exception a rank threw.
  static Result run(const Options& options,
                    const std::function<void(Proc&)>& body);

  /// Run several jobs concurrently on one shared virtual timeline (see the
  /// header comment).  options.nprocs is ignored; each job supplies its own.
  /// Any rank's exception aborts the whole run and is rethrown.
  static std::vector<JobResult> run_jobs(const Options& options,
                                         std::vector<JobSpec> jobs);

  /// Make a blocked proc runnable again (idempotent if already runnable).
  /// `global_rank` addresses across jobs; must be called from a proc of the
  /// same run.
  void signal(int global_rank);
  /// Job-addressed form: wake `rank` of `job`.
  void signal(int job, int rank);

  /// Total procs across all jobs.
  int total_procs() const { return static_cast<int>(procs_.size()); }
  /// Ranks in job `job`.
  int job_nprocs(int job) const;
  /// Number of jobs in this run (1 for Engine::run).
  int njobs() const { return static_cast<int>(jobs_.size()); }
  /// Label of job `job` ("" when anonymous).
  const std::string& job_name(int job) const;

 private:
  Engine() = default;

  enum class State : std::uint8_t { kRunnable, kBlocked, kFinished };

  // Thrown internally to unwind proc bodies when the run is aborted.
  struct Aborted {};

  struct Fiber;  // a fiber's stack and saved context (engine.cpp)

  struct JobInfo {
    std::string name;
    int first = 0;  ///< global index of rank 0
    int nprocs = 0;
  };

  std::vector<JobResult> execute(const Options& options,
                                 std::vector<JobSpec> jobs);
  const std::function<void(Proc&)>& body_of(int global) const;

  void run_fibers();
  void fiber_main(int global);
  /// Every fiber's first code: runs fiber_main for the proc that
  /// switch_to made current, so the entry needs no arguments.
  static void fiber_entry();
  /// Dispatch fiber `next` from the context of `from` (-1: the scheduler).
  /// `from_dying` marks `from` as permanently done (its stack may be freed
  /// once control leaves it).
  void switch_to(int from, int next, bool from_dying);

  // ---- scheduler core ---------------------------------------------------
  /// Re-queue the running proc `global` (unless it blocked), pick the next
  /// one and switch to it; returns once `global` is picked again.  Throws
  /// Aborted to unwind the proc's body once the run is aborted.
  void yield_from(int global);
  /// Pop the next proc to run off the ready queue.  When nothing is
  /// runnable but unfinished procs remain, aborts the run with a diagnosed
  /// DeadlockError and returns -1; returns -1 with no error when everything
  /// finished.
  int pick_claim();
  void ready_push(int global);
  int ready_pop();
  void abort_run(std::exception_ptr e);
  void observe_finish(int global);

  std::vector<Proc> procs_;
  std::vector<State> states_;
  /// Suspended runnable procs as a binary min-heap of (clock, global index)
  /// — the pick order.  Sound because a suspended proc's clock is frozen:
  /// clocks only advance from the proc's own execution, so entries never go
  /// stale.  The running proc is *not* in the heap (its clock moves); it
  /// pushes itself when it yields and another proc sorts first.  Reserved
  /// for every proc up front, so no push or pop allocates.  Replaces an
  /// O(nprocs) scan per context switch that dominated host time beyond ~1k
  /// ranks (see docs/SCALING.md).
  std::vector<std::pair<double, int>> ready_;
  std::vector<int> ties_;  ///< a perturbed pick's equal-clock group
  std::vector<JobInfo> jobs_;
  std::vector<const std::function<void(Proc&)>*> bodies_;  ///< per job
  bool aborted_ = false;
  std::exception_ptr first_error_;
  bool perturb_ = false;
  Rng perturb_rng_{0};  ///< tie-shuffle stream (perturb_ only)

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::unique_ptr<Fiber> sched_fiber_;  ///< the scheduler's own context

  friend class Proc;
};

/// The Proc currently executing simulated code: a scheduler-maintained
/// pointer, since every proc is a fiber on one OS thread.  Throws LogicError
/// if no simulated proc is executing.
Proc& current_proc();

/// True when called from simulated-processor code.
bool in_simulation();

}  // namespace paramrio::sim
