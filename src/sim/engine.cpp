#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

// Sanitizer feature detection (gcc defines __SANITIZE_*; clang has
// __has_feature).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARAMRIO_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PARAMRIO_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PARAMRIO_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PARAMRIO_TSAN 1
#endif

#if defined(PARAMRIO_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

// The C++ runtime keeps per-thread exception state (the in-flight exception
// stack and the uncaught count behind std::uncaught_exceptions) in TLS.
// Fibers share one OS thread, but a proc may legitimately suspend while
// unwinding (a destructor advancing the clock during CrashError propagation)
// or inside a catch block (retry backoff after a TransientError), so that
// state must travel with the fiber.  We swap it at every context switch.
// The struct layout below matches both libstdc++ and libc++abi; the symbol
// itself is not exposed by <cxxabi.h>, hence the local declaration.
namespace __cxxabiv1 {
extern "C" void* __cxa_get_globals() noexcept;
}

namespace paramrio::sim {

namespace {
thread_local Proc* t_current_proc = nullptr;

RunObserver* g_run_observer = nullptr;

struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

void account(ProcStats& s, TimeCategory cat, double dt) {
  switch (cat) {
    case TimeCategory::kCpu:
      s.cpu_time += dt;
      break;
    case TimeCategory::kComm:
      s.comm_time += dt;
      break;
    case TimeCategory::kIo:
      s.io_time += dt;
      break;
  }
}

std::uint64_t env_u64(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<std::uint64_t>(v);
}
}  // namespace

// ---------------------------------------------------------------------------
// Options resolution
// ---------------------------------------------------------------------------

std::uint64_t Engine::Options::effective_perturb_seed() const {
  if (perturb_seed != 0) return perturb_seed;
  if (!env_perturb) return 0;
  return env_u64("PARAMRIO_SCHED_SEED");
}

SchedBackend Engine::Options::effective_backend() const {
#if defined(PARAMRIO_TSAN)
  // TSan instruments OS-thread synchronisation; it neither understands
  // swapcontext stack switches nor has anything to verify on a
  // single-threaded scheduler.  The thread backend is the one with real
  // cross-thread hand-offs, so it is what TSan runs — unconditionally
  // (docs/SCALING.md).
  return SchedBackend::kThreads;
#else
  if (backend != SchedBackend::kAuto) return backend;
  const char* env = std::getenv("PARAMRIO_SIM_ENGINE");
  if (env != nullptr && std::strcmp(env, "threads") == 0) {
    return SchedBackend::kThreads;
  }
  return SchedBackend::kFibers;
#endif
}

std::size_t Engine::Options::effective_fiber_stack_bytes() const {
  constexpr std::size_t kMin = 64 * 1024;
  std::size_t bytes = fiber_stack_bytes;
  if (bytes == 0) {
    bytes = static_cast<std::size_t>(env_u64("PARAMRIO_FIBER_STACK_KB")) * 1024;
  }
  if (bytes == 0) {
#if defined(PARAMRIO_ASAN)
    bytes = 4 * 1024 * 1024;  // ASan redzones inflate frames considerably
#else
    bytes = 1024 * 1024;
#endif
  }
  return bytes < kMin ? kMin : bytes;
}

// ---------------------------------------------------------------------------
// Observer / current-proc accessors
// ---------------------------------------------------------------------------

void set_run_observer(RunObserver* obs) { g_run_observer = obs; }

RunObserver* run_observer() { return g_run_observer; }

Proc& current_proc() {
  PARAMRIO_REQUIRE(t_current_proc != nullptr,
                   "not inside a simulated processor");
  return *t_current_proc;
}

bool in_simulation() { return t_current_proc != nullptr; }

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

int Proc::nprocs() const { return engine_->job_nprocs(job_); }

const std::string& Proc::job_name() const { return engine_->job_name(job_); }

int Proc::njobs() const { return engine_->njobs(); }

void Proc::advance(double dt, TimeCategory cat) {
  PARAMRIO_REQUIRE(dt >= 0.0, "negative time advance");
  if (deferred_) {
    shadow_clock_ += dt;
    return;
  }
  clock_ += dt;
  account(stats_, cat, dt);
  engine_->yield_from(global_);
}

void Proc::clock_at_least(double t, TimeCategory cat) {
  if (deferred_) {
    if (t > shadow_clock_) shadow_clock_ = t;
    return;
  }
  if (t <= clock_) return;
  account(stats_, cat, t - clock_);
  clock_ = t;
  engine_->yield_from(global_);
}

void Proc::use_resource(Timeline& tl, double service, TimeCategory cat) {
  PARAMRIO_REQUIRE(service >= 0.0, "negative service time");
  if (deferred_) {
    shadow_clock_ = tl.acquire(shadow_clock_, service, background_io_);
    return;
  }
  double done = tl.acquire(clock_, service, background_io_);
  account(stats_, cat, done - clock_);
  clock_ = done;
  engine_->yield_from(global_);
}

void Proc::begin_deferred() {
  PARAMRIO_REQUIRE(!deferred_, "begin_deferred: already deferred");
  deferred_ = true;
  shadow_clock_ = clock_;
}

double Proc::end_deferred() {
  PARAMRIO_REQUIRE(deferred_, "end_deferred: not deferred");
  deferred_ = false;
  return shadow_clock_;
}

void Proc::block() {
  PARAMRIO_REQUIRE(!deferred_, "block: cannot block while deferred");
  {
    std::lock_guard<std::mutex> l(engine_->mu_);
    engine_->states_[static_cast<std::size_t>(global_)] =
        Engine::State::kBlocked;
  }
  engine_->yield_from(global_);
}

// ---------------------------------------------------------------------------
// Fiber state
// ---------------------------------------------------------------------------

struct Engine::Fiber {
  ucontext_t ctx{};
  void* map_base = nullptr;   ///< mmap base (guard page), nullptr: OS stack
  std::size_t map_len = 0;
  void* stack_lo = nullptr;   ///< usable stack (above the guard page)
  std::size_t stack_len = 0;
  bool done = false;          ///< will never run again; stack reclaimable
  EhGlobals eh{};             ///< C++ runtime exception state while suspended
  void* asan_fake_stack = nullptr;
};

// ---------------------------------------------------------------------------
// Run setup / teardown
// ---------------------------------------------------------------------------

Engine::Result Engine::run(const Options& options,
                           const std::function<void(Proc&)>& body) {
  PARAMRIO_REQUIRE(options.nprocs >= 1, "need at least one proc");
  JobSpec spec;
  spec.nprocs = options.nprocs;
  spec.body = body;
  std::vector<JobSpec> jobs;
  jobs.push_back(std::move(spec));
  Engine engine;
  return std::move(engine.execute(options, std::move(jobs))[0].result);
}

std::vector<Engine::JobResult> Engine::run_jobs(const Options& options,
                                                std::vector<JobSpec> jobs) {
  PARAMRIO_REQUIRE(!jobs.empty(), "run_jobs: need at least one job");
  Engine engine;
  return engine.execute(options, std::move(jobs));
}

int Engine::job_nprocs(int job) const {
  return jobs_[static_cast<std::size_t>(job)].nprocs;
}

const std::string& Engine::job_name(int job) const {
  return jobs_[static_cast<std::size_t>(job)].name;
}

const std::function<void(Proc&)>& Engine::body_of(int global) const {
  const int job = procs_[static_cast<std::size_t>(global)].job_;
  return *bodies_[static_cast<std::size_t>(job)];
}

std::vector<Engine::JobResult> Engine::execute(const Options& options,
                                               std::vector<JobSpec> jobs) {
  int total = 0;
  for (const JobSpec& j : jobs) {
    PARAMRIO_REQUIRE(j.nprocs >= 1, "need at least one proc");
    PARAMRIO_REQUIRE(j.body != nullptr, "job has no body");
    PARAMRIO_REQUIRE(j.start_time >= 0.0, "negative job start time");
    PARAMRIO_REQUIRE(j.weight > 0.0, "job weight must be positive");
    total += j.nprocs;
  }

  const std::uint64_t perturb = options.effective_perturb_seed();
  if (perturb != 0) {
    perturb_ = true;
    perturb_rng_ = Rng(perturb);
  }
  backend_ = options.effective_backend();
  fiber_stack_bytes_ = options.effective_fiber_stack_bytes();

  // Per-rank RNG streams are drawn from the root seed in global rank order,
  // so a single-job run is seeded exactly as it always was.
  Rng root(options.seed);
  procs_.reserve(static_cast<std::size_t>(total));
  jobs_.reserve(jobs.size());
  bodies_.reserve(jobs.size());
  int first = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& spec = jobs[j];
    jobs_.push_back(JobInfo{spec.name, first, spec.nprocs});
    bodies_.push_back(&spec.body);
    for (int r = 0; r < spec.nprocs; ++r) {
      Proc p(this, r, root.next_u64());
      p.global_ = first + r;
      p.job_ = static_cast<int>(j);
      p.job_weight_ = spec.weight;
      p.job_start_ = spec.start_time;
      p.clock_ = spec.start_time;
      procs_.push_back(std::move(p));
    }
    first += spec.nprocs;
  }
  states_.assign(static_cast<std::size_t>(total), State::kRunnable);
  // Seed the ready queue with every suspended runnable proc.  Global proc 0
  // is dispatched first without a scheduling pick (both backends hand it the
  // first baton unconditionally), so it starts out claimed.
  for (int g = 1; g < total; ++g) ready_insert_locked(g);
  current_ = 0;

  // Support nesting (an Engine::run inside a proc body): the inner run owns
  // t_current_proc while it executes and must hand it back.
  Proc* outer = t_current_proc;
  t_current_proc = nullptr;
  try {
    if (backend_ == SchedBackend::kThreads) {
      run_threads();
    } else {
      run_fibers();
    }
  } catch (...) {
    t_current_proc = outer;
    throw;
  }
  t_current_proc = outer;

  if (first_error_) std::rethrow_exception(first_error_);

  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobInfo& job = jobs_[j];
    JobResult jr;
    jr.name = job.name;
    jr.start_time = jobs[j].start_time;
    jr.result.finish_times.reserve(static_cast<std::size_t>(job.nprocs));
    jr.result.stats.reserve(static_cast<std::size_t>(job.nprocs));
    for (int r = 0; r < job.nprocs; ++r) {
      const Proc& p = procs_[static_cast<std::size_t>(job.first + r)];
      jr.result.finish_times.push_back(p.now());
      jr.result.stats.push_back(p.stats());
      jr.result.makespan = std::max(jr.result.makespan, p.now());
    }
    results.push_back(std::move(jr));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Thread backend (one OS thread per rank; kept for TSan and for differential
// testing of the fiber scheduler — both must serialise identically)
// ---------------------------------------------------------------------------

void Engine::run_threads() {
  cvs_.reserve(procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    cvs_.push_back(std::make_unique<std::condition_variable>());
  }
  std::vector<std::thread> threads;
  threads.reserve(procs_.size());
  for (int g = 0; g < total_procs(); ++g) {
    threads.emplace_back([this, g] { thread_main(g); });
  }
  for (auto& t : threads) t.join();
}

void Engine::thread_main(int global) {
  Proc& proc = procs_[static_cast<std::size_t>(global)];
  t_current_proc = &proc;
  // Wait for the baton before touching any shared state.
  {
    std::unique_lock<std::mutex> l(mu_);
    cvs_[static_cast<std::size_t>(global)]->wait(
        l, [&] { return current_ == global || aborted_; });
  }
  bool clean = false;
  try {
    if (!aborted_) {
      body_of(global)(proc);
      clean = true;
    }
  } catch (const Aborted&) {
    // Another rank failed; just unwind quietly.
  } catch (...) {
    {
      std::lock_guard<std::mutex> l(mu_);
      states_[static_cast<std::size_t>(global)] = State::kFinished;
      abort_locked(std::current_exception());
    }
    release_unwind(global);
    t_current_proc = nullptr;
    return;
  }
  if (clean && !aborted_) {
    // The baton is still ours here: the observer sees serialised state.
    observe_finish(global);
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    states_[static_cast<std::size_t>(global)] = State::kFinished;
    if (clean && !aborted_) {
      pass_baton_locked();
    }
  }
  release_unwind(global);
  t_current_proc = nullptr;
}

void Engine::acquire_unwind_locked(std::unique_lock<std::mutex>& l,
                                   int global) {
  if (unwinder_ == global) return;
  unwind_cv_.wait(l, [&] { return unwinder_ == -1; });
  unwinder_ = global;
}

void Engine::release_unwind(int global) {
  std::lock_guard<std::mutex> l(mu_);
  if (unwinder_ == global) {
    unwinder_ = -1;
    unwind_cv_.notify_all();
  }
}

void Engine::yield_threads(int global, bool unwinding) {
  std::unique_lock<std::mutex> l(mu_);
  if (aborted_) {
    // The baton stops circulating at abort, but the destructors that land
    // here still touch shared state; the unwind token keeps post-abort
    // unwinding mutually exclusive (one rank at a time).
    acquire_unwind_locked(l, global);
    if (unwinding) return;
    throw Aborted{};
  }
  // Still runnable (a blocking proc flipped its state before yielding):
  // rejoin the ready queue at the current clock before picking, so the pick
  // sees the same candidate set the old full scan did.
  if (states_[static_cast<std::size_t>(global)] == State::kRunnable) {
    ready_insert_locked(global);
  }
  pass_baton_locked();
  if (current_ != global) {
    cvs_[static_cast<std::size_t>(global)]->wait(
        l, [&] { return current_ == global || aborted_; });
  }
  if (aborted_) {
    acquire_unwind_locked(l, global);
    if (unwinding) return;
    throw Aborted{};
  }
}

void Engine::pass_baton_locked() {
  int next = pick_claim_locked();
  if (next >= 0) {
    current_ = next;
    cvs_[static_cast<std::size_t>(next)]->notify_one();
    return;
  }
  current_ = -1;
}

// ---------------------------------------------------------------------------
// Fiber backend (run-to-yield continuations on one OS thread)
// ---------------------------------------------------------------------------

namespace {
/// Swap the C++ runtime's per-thread exception state between fibers (see the
/// __cxa_get_globals note at the top of this file).
void swap_eh_globals(EhGlobals& save_into, const EhGlobals& load_from) {
  void* globals = __cxxabiv1::__cxa_get_globals();
  std::memcpy(&save_into, globals, sizeof(EhGlobals));
  std::memcpy(globals, &load_from, sizeof(EhGlobals));
}
}  // namespace

void Engine::run_fibers() {
  const long page = ::sysconf(_SC_PAGESIZE);
  PARAMRIO_REQUIRE(page > 0, "sysconf(_SC_PAGESIZE) failed");
  const std::size_t pagesz = static_cast<std::size_t>(page);
  std::size_t stack_len = (fiber_stack_bytes_ + pagesz - 1) & ~(pagesz - 1);

  sched_fiber_ = std::make_unique<Fiber>();
#if defined(PARAMRIO_ASAN)
  {
    // ASan needs the target stack's bounds at every switch, including
    // switches back to the scheduler, which runs on the OS thread stack.
    pthread_attr_t attr;
    PARAMRIO_REQUIRE(pthread_getattr_np(pthread_self(), &attr) == 0,
                     "pthread_getattr_np failed");
    void* lo = nullptr;
    std::size_t len = 0;
    PARAMRIO_REQUIRE(pthread_attr_getstack(&attr, &lo, &len) == 0,
                     "pthread_attr_getstack failed");
    pthread_attr_destroy(&attr);
    sched_fiber_->stack_lo = lo;
    sched_fiber_->stack_len = len;
  }
#endif

  fibers_.reserve(procs_.size());
  const std::uintptr_t self = reinterpret_cast<std::uintptr_t>(this);
  for (int g = 0; g < total_procs(); ++g) {
    auto f = std::make_unique<Fiber>();
    // Lazily-committed stack with a PROT_NONE guard page at the low end, so
    // overflow faults instead of silently corrupting a neighbour.  Resident
    // memory tracks the pages each rank actually touches.
    const std::size_t map_len = stack_len + pagesz;
    void* base = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PARAMRIO_REQUIRE(base != MAP_FAILED, "fiber stack mmap failed");
    PARAMRIO_REQUIRE(::mprotect(base, pagesz, PROT_NONE) == 0,
                     "fiber guard page mprotect failed");
    f->map_base = base;
    f->map_len = map_len;
    f->stack_lo = static_cast<char*>(base) + pagesz;
    f->stack_len = stack_len;
    PARAMRIO_REQUIRE(::getcontext(&f->ctx) == 0, "getcontext failed");
    f->ctx.uc_stack.ss_sp = f->stack_lo;
    f->ctx.uc_stack.ss_size = f->stack_len;
    f->ctx.uc_link = nullptr;  // fibers exit via finish_fiber, never return
    // Two-step cast: makecontext takes void(*)() while the trampoline has
    // real parameters; going via void* sidesteps -Wcast-function-type.
    void (*entry)() = reinterpret_cast<void (*)()>(
        reinterpret_cast<void*>(&Engine::fiber_trampoline));
    ::makecontext(&f->ctx, entry, 3, static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xffffffffu), g);
    fibers_.push_back(std::move(f));
  }

  // Initial dispatch: global proc 0, with no scheduling pick — exactly as
  // the thread backend hands the first baton to rank 0 (RNG-draw parity).
  switch_to(-1, 0, false);

  // Control returns here once the run is over: after a clean run the last
  // finisher found nothing left to schedule; after an abort every dying
  // fiber returns here.  The drain loop resumes each remaining fiber so it
  // can unwind on this thread — never-started fibers skip their body,
  // suspended ones get Aborted thrown from their yield point — which is
  // what makes abort clean even when procs sit blocked inside collectives.
  for (;;) {
    int pending = -1;
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      if (!fibers_[i]->done) {
        pending = static_cast<int>(i);
        break;
      }
    }
    if (pending < 0) break;
    switch_to(-1, pending, false);
  }

  for (auto& f : fibers_) {
    if (f->map_base != nullptr) ::munmap(f->map_base, f->map_len);
  }
  fibers_.clear();
  sched_fiber_.reset();
}

void Engine::fiber_trampoline(unsigned hi, unsigned lo, int global) {
#if defined(PARAMRIO_ASAN)
  // First entry onto this fiber's stack: complete the switch ASan saw start.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  const std::uintptr_t ptr =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Engine*>(ptr)->fiber_main(global);
}

void Engine::fiber_main(int global) {
  Proc& proc = procs_[static_cast<std::size_t>(global)];
  bool clean = false;
  try {
    if (!aborted_) {
      body_of(global)(proc);
      clean = true;
    }
  } catch (const Aborted&) {
    // Another rank failed; we just unwound quietly.
  } catch (...) {
    std::lock_guard<std::mutex> l(mu_);
    states_[static_cast<std::size_t>(global)] = State::kFinished;
    abort_locked(std::current_exception());
  }
  if (clean && !aborted_) observe_finish(global);
  int next = -1;
  {
    std::lock_guard<std::mutex> l(mu_);
    states_[static_cast<std::size_t>(global)] = State::kFinished;
    // Exactly one scheduling pick per clean finish — the same RNG-draw
    // cadence as the thread backend's pass_baton_locked.
    if (clean && !aborted_) next = pick_claim_locked();
  }
  switch_to(global, aborted_ ? -1 : next, /*from_dying=*/true);
  // A dead fiber can never be rescheduled; reaching here is a scheduler bug.
  std::abort();
}

void Engine::yield_fibers(int global, bool unwinding) {
  int next;
  {
    std::unique_lock<std::mutex> l(mu_);
    if (aborted_) {
      // No unwind token needed: the drain loop resumes one fiber at a time
      // on this single thread, so post-abort unwinding is serial by
      // construction.
      if (unwinding) return;
      throw Aborted{};
    }
    if (states_[static_cast<std::size_t>(global)] == State::kRunnable) {
      ready_insert_locked(global);
    }
    next = pick_claim_locked();
  }
  if (aborted_) {
    // We just detected the deadlock ourselves; unwind this proc too.
    if (unwinding) return;
    throw Aborted{};
  }
  if (next == global) return;  // still the minimum: keep running
  switch_to(global, next, false);
  // Somebody resumed us: either the schedule reached our clock again, or
  // the drain loop wants us to unwind.
  if (aborted_) {
    if (unwinding) return;
    throw Aborted{};
  }
}

void Engine::switch_to(int from, int next, bool from_dying) {
  Fiber& from_f = from < 0 ? *sched_fiber_
                           : *fibers_[static_cast<std::size_t>(from)];
  Fiber& to_f = next < 0 ? *sched_fiber_
                         : *fibers_[static_cast<std::size_t>(next)];
  if (from_dying && from >= 0) from_f.done = true;
  current_ = next;
  t_current_proc =
      next < 0 ? nullptr : &procs_[static_cast<std::size_t>(next)];
  swap_eh_globals(from_f.eh, to_f.eh);
#if defined(PARAMRIO_ASAN)
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from_f.asan_fake_stack,
                                 to_f.stack_lo, to_f.stack_len);
#endif
  PARAMRIO_REQUIRE(::swapcontext(&from_f.ctx, &to_f.ctx) == 0,
                   "swapcontext failed");
#if defined(PARAMRIO_ASAN)
  __sanitizer_finish_switch_fiber(from_f.asan_fake_stack, nullptr, nullptr);
#endif
}

// ---------------------------------------------------------------------------
// Shared scheduler core
// ---------------------------------------------------------------------------

void Engine::yield_from(int global) {
  // A rank unwinding an exception (e.g. an injected CrashError, or Aborted
  // after another rank crashed) still runs destructors that advance the
  // clock — File close, RAII spans.  Those land here from noexcept contexts,
  // so once the run is aborted we must return instead of throwing: the
  // virtual time of a dying run is meaningless, but terminate() is not.
  const bool unwinding = std::uncaught_exceptions() > 0;
  if (backend_ == SchedBackend::kThreads) {
    yield_threads(global, unwinding);
  } else {
    yield_fibers(global, unwinding);
  }
}

void Engine::ready_insert_locked(int global) {
  ready_.emplace(procs_[static_cast<std::size_t>(global)].now(), global);
}

int Engine::pick_next_locked() {
  // The queue holds every runnable proc (the yielding proc re-inserted
  // itself before this call), ordered by (clock, global index) — so begin()
  // is exactly the proc the old linear scan found: lowest clock, ties to the
  // lowest index.
  if (ready_.empty()) return -1;
  const auto best = ready_.begin();
  if (!perturb_) return best->second;
  // Schedule perturbation: break the tie by a seeded draw instead of lowest
  // index.  Any tie order is a legal serialisation of the same virtual-time
  // schedule, so correct programs are insensitive to the choice.  The tie
  // group is the equal-clock prefix of the queue, enumerated in index order
  // — the same candidates, in the same order, as the scan this replaced, so
  // the RNG stream consumes identically and perturbed runs stay
  // byte-for-byte reproducible across engine versions.
  const double best_clock = best->first;
  int ties = 0;
  auto end = best;
  while (end != ready_.end() && end->first == best_clock) {
    ++ties;
    ++end;
  }
  if (ties <= 1) return best->second;
  std::uint64_t pick = perturb_rng_.next_u64() % static_cast<std::uint64_t>(ties);
  auto it = best;
  std::advance(it, static_cast<std::ptrdiff_t>(pick));
  return it->second;
}

int Engine::pick_claim_locked() {
  int next = pick_or_deadlock_locked();
  if (next >= 0) {
    // Claimed: the proc is about to run and its clock will move, so it must
    // leave the queue (suspended entries rely on frozen clocks).
    ready_.erase({procs_[static_cast<std::size_t>(next)].now(), next});
  }
  return next;
}

int Engine::pick_or_deadlock_locked() {
  int next = pick_next_locked();
  if (next >= 0) return next;
  // Nobody runnable: either everyone finished (fine) or deadlock.
  bool all_finished =
      std::all_of(states_.begin(), states_.end(),
                  [](State s) { return s == State::kFinished; });
  if (!all_finished) {
    int blocked = 0;
    for (State s : states_) blocked += (s == State::kBlocked) ? 1 : 0;
    std::string message = "simulation deadlock: " + std::to_string(blocked) +
                          " proc(s) blocked with no runnable proc";
    if (g_run_observer != nullptr) {
      // The verify layer (when attached) knows what each blocked rank was
      // doing — the collective it entered, the peer its receive awaits —
      // and renders the wait-for cycle.  Serialised: we hold the engine
      // lock and no proc is runnable.
      const std::string diagnosis = g_run_observer->diagnose_deadlock();
      if (!diagnosis.empty()) message += "\n" + diagnosis;
    }
    abort_locked(std::make_exception_ptr(DeadlockError(message)));
  }
  return -1;
}

void Engine::abort_locked(std::exception_ptr e) {
  if (!first_error_) first_error_ = e;
  aborted_ = true;
  for (auto& cv : cvs_) cv->notify_all();
}

void Engine::observe_finish(int global) {
  if (g_run_observer == nullptr) return;
  const Proc& proc = procs_[static_cast<std::size_t>(global)];
  g_run_observer->on_proc_finished(global, proc.deferred(), proc.now());
}

void Engine::signal(int global_rank) {
  PARAMRIO_REQUIRE(global_rank >= 0 && global_rank < total_procs(),
                   "signal: bad rank");
  std::lock_guard<std::mutex> l(mu_);
  if (states_[static_cast<std::size_t>(global_rank)] == State::kBlocked) {
    states_[static_cast<std::size_t>(global_rank)] = State::kRunnable;
    ready_insert_locked(global_rank);
  }
}

void Engine::signal(int job, int rank) {
  PARAMRIO_REQUIRE(job >= 0 && job < njobs(), "signal: bad job");
  PARAMRIO_REQUIRE(rank >= 0 && rank < job_nprocs(job), "signal: bad rank");
  signal(jobs_[static_cast<std::size_t>(job)].first + rank);
}

}  // namespace paramrio::sim
