#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

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
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PARAMRIO_TSAN)
#include <sanitizer/tsan_interface.h>
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

// The fiber switch.  On x86-64, paramrio_fiber_switch(save_sp, load_sp)
// pushes what the System V ABI makes callee-saved (rbx, rbp, r12-r15, MXCSR
// and the x87 control word), stores rsp through save_sp and pops the same
// frame off load_sp, with no system call.  glibc's swapcontext also restores
// the signal mask, an rt_sigprocmask call per switch, and nothing in this
// program changes one; it still runs on other architectures and under a
// CET shadow stack (asm_switch).  A new fiber's first switch returns into
// paramrio_fiber_start, which calls the entry in r12 and is the outermost
// frame, so debuggers and unwinders stop there.
#if defined(__x86_64__) && defined(__LP64__) && defined(__ELF__)
#define PARAMRIO_FIBER_ASM 1
asm(R"(
  .pushsection .text
  .p2align 4
  .globl paramrio_fiber_switch
  .hidden paramrio_fiber_switch
  .type paramrio_fiber_switch, @function
paramrio_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size paramrio_fiber_switch, .-paramrio_fiber_switch

  .globl paramrio_fiber_start
  .hidden paramrio_fiber_start
  .type paramrio_fiber_start, @function
paramrio_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  call *%r12
  ud2
  .cfi_endproc
  .size paramrio_fiber_start, .-paramrio_fiber_start
  .popsection
)");
extern "C" void paramrio_fiber_switch(void** save_sp, void* load_sp);
extern "C" void paramrio_fiber_start();
#endif

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

/// Fiber stack size.  Stacks are lazily-committed guard-paged mmaps, so the
/// virtual size is cheap and resident memory tracks actual use.  ASan's
/// redzones inflate frames considerably.
#if defined(PARAMRIO_ASAN)
constexpr std::size_t kFiberStackBytes = 4 * 1024 * 1024;
#else
constexpr std::size_t kFiberStackBytes = 1024 * 1024;
#endif

#if defined(PARAMRIO_FIBER_ASM)
/// False when glibc runs this process with a CET shadow stack (it may, as
/// -fcf-protection marks objects compatible): a `ret` onto another fiber's
/// stack would fault.  rdsspq leaves a zeroed register at 0 without one.
bool asm_switch() {
  static const bool usable = [] {
    std::uint64_t ssp = 0;
    asm volatile("rdsspq %0" : "+r"(ssp));
    return ssp == 0;
  }();
  return usable;
}
#endif
}  // namespace

// ---------------------------------------------------------------------------
// Options resolution
// ---------------------------------------------------------------------------

std::uint64_t Engine::Options::effective_perturb_seed() const {
  if (perturb_seed != 0) return perturb_seed;
  const char* env = std::getenv("PARAMRIO_SCHED_SEED");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<std::uint64_t>(v);
}

// ---------------------------------------------------------------------------
// Observer / current-proc accessors
// ---------------------------------------------------------------------------

void set_run_observer(RunObserver* obs) { g_run_observer = obs; }

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
  engine_->states_[static_cast<std::size_t>(global_)] =
      Engine::State::kBlocked;
  engine_->yield_from(global_);
}

// ---------------------------------------------------------------------------
// Fiber state
// ---------------------------------------------------------------------------

struct Engine::Fiber {
  void* sp = nullptr;         ///< saved stack pointer (assembly switch)
  ucontext_t ctx{};           ///< saved context (swapcontext fallback)
  void* map_base = nullptr;   ///< mmap base (guard page), nullptr: OS stack
  std::size_t map_len = 0;
  void* stack_lo = nullptr;   ///< usable stack (above the guard page)
  std::size_t stack_len = 0;
  bool done = false;          ///< will never run again; stack reclaimable
  EhGlobals eh{};             ///< C++ runtime exception state while suspended
  void* asan_fake_stack = nullptr;
#if defined(PARAMRIO_TSAN)
  void* tsan_fiber = nullptr;  ///< TSan's context for this stack
#endif

  void prepare();  ///< make the first switch here enter Engine::fiber_entry
};

void Engine::Fiber::prepare() {
#if defined(PARAMRIO_FIBER_ASM)
  if (asm_switch()) {
    // The frame paramrio_fiber_switch pops, on the zero-filled new mapping,
    // top down: two words that keep the entry's call 16-byte aligned, the
    // return address, rbp, rbx, r12 (the entry), r13-r15, and this
    // context's MXCSR and x87 control word, as getcontext would take them.
    auto* frame = reinterpret_cast<std::uint64_t*>(
                      static_cast<char*>(stack_lo) + stack_len) - 10;
    std::uint32_t mxcsr = 0;
    std::uint16_t fpcw = 0;
    asm("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
    frame[0] = mxcsr | std::uint64_t{fpcw} << 32;
    frame[4] = reinterpret_cast<std::uintptr_t>(&Engine::fiber_entry);
    frame[7] = reinterpret_cast<std::uintptr_t>(&paramrio_fiber_start);
    sp = frame;
    return;
  }
#endif
  PARAMRIO_REQUIRE(::getcontext(&ctx) == 0, "getcontext failed");
  ctx.uc_stack.ss_sp = stack_lo;
  ctx.uc_stack.ss_size = stack_len;
  ctx.uc_link = nullptr;  // fibers exit via fiber_main's last switch
  ::makecontext(&ctx, &Engine::fiber_entry, 0);
}

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
  // is dispatched first without a scheduling pick, so it starts out claimed.
  ready_.reserve(static_cast<std::size_t>(total));
  ties_.reserve(static_cast<std::size_t>(total));
  for (int g = 1; g < total; ++g) ready_push(g);

  // Support nesting (an Engine::run inside a proc body): the inner run owns
  // t_current_proc while it executes and must hand it back.
  Proc* outer = t_current_proc;
  t_current_proc = nullptr;
  try {
    run_fibers();
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
// Fibers (run-to-yield continuations on one OS thread)
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
  const std::size_t stack_len =
      (kFiberStackBytes + pagesz - 1) & ~(pagesz - 1);

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
#if defined(PARAMRIO_TSAN)
  // The scheduler runs on whatever context called run(): the OS thread, or
  // an outer run's fiber when runs nest.
  sched_fiber_->tsan_fiber = __tsan_get_current_fiber();
#endif

  fibers_.reserve(procs_.size());
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
    f->prepare();
#if defined(PARAMRIO_TSAN)
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    fibers_.push_back(std::move(f));
  }

  // Initial dispatch: global proc 0, with no scheduling pick.
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
#if defined(PARAMRIO_TSAN)
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
    if (f->map_base != nullptr) ::munmap(f->map_base, f->map_len);
  }
  fibers_.clear();
  sched_fiber_.reset();
}

void Engine::fiber_entry() {
#if defined(PARAMRIO_ASAN)
  // First entry onto this fiber's stack: complete the switch ASan saw start.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  Proc& proc = *t_current_proc;
  proc.engine_->fiber_main(proc.global_);
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
    abort_run(std::current_exception());
  }
  if (clean && !aborted_) observe_finish(global);
  states_[static_cast<std::size_t>(global)] = State::kFinished;
  // Exactly one scheduling pick per clean finish.
  const int next = clean && !aborted_ ? pick_claim() : -1;
  switch_to(global, aborted_ ? -1 : next, /*from_dying=*/true);
  // A dead fiber can never be rescheduled; reaching here is a scheduler bug.
  std::abort();
}

void Engine::switch_to(int from, int next, bool from_dying) {
  Fiber& from_f = from < 0 ? *sched_fiber_
                           : *fibers_[static_cast<std::size_t>(from)];
  Fiber& to_f = next < 0 ? *sched_fiber_
                         : *fibers_[static_cast<std::size_t>(next)];
  if (from_dying && from >= 0) from_f.done = true;
  t_current_proc =
      next < 0 ? nullptr : &procs_[static_cast<std::size_t>(next)];
  swap_eh_globals(from_f.eh, to_f.eh);
#if defined(PARAMRIO_ASAN)
  // A dying fiber never returns through its frames: clear their redzones,
  // so that a stack later mapped at these addresses starts unpoisoned.  No
  // instrumented frame may open on this stack after this call.
  if (from_dying) __asan_handle_no_return();
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from_f.asan_fake_stack,
                                 to_f.stack_lo, to_f.stack_len);
#endif
#if defined(PARAMRIO_TSAN)
  __tsan_switch_to_fiber(to_f.tsan_fiber, 0);
#endif
#if defined(PARAMRIO_FIBER_ASM)
  if (asm_switch()) {
    paramrio_fiber_switch(&from_f.sp, to_f.sp);
  } else
#endif
  {
    PARAMRIO_REQUIRE(::swapcontext(&from_f.ctx, &to_f.ctx) == 0,
                     "swapcontext failed");
  }
#if defined(PARAMRIO_ASAN)
  __sanitizer_finish_switch_fiber(from_f.asan_fake_stack, nullptr, nullptr);
#endif
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

void Engine::yield_from(int global) {
  // A rank unwinding an exception (e.g. an injected CrashError, or Aborted
  // after another rank crashed) still runs destructors that advance the
  // clock — File close, RAII spans.  Those land here from noexcept contexts,
  // so once the run is aborted we must return instead of throwing: the
  // virtual time of a dying run is meaningless, but terminate() is not.
  const bool unwinding = std::uncaught_exceptions() > 0;
  if (!aborted_) {
    const bool runnable =
        states_[static_cast<std::size_t>(global)] == State::kRunnable;
    // A runnable proc that still sorts first keeps running with no queue
    // operation.  Under perturbation only a strictly earlier clock does, so
    // a tie still goes through the draw.
    const std::pair<double, int> key{
        procs_[static_cast<std::size_t>(global)].now(), global};
    const bool first =
        ready_.empty() || (perturb_ ? key.first < ready_.front().first
                                    : key < ready_.front());
    if (!runnable || !first) {
      if (runnable) ready_push(global);
      // pick_claim aborts the run itself when it finds a deadlock.
      const int next = pick_claim();
      if (next != global && !aborted_) switch_to(global, next, false);
    }
  }
  // Still the minimum, or resumed: either the schedule reached our clock
  // again, or the run was aborted and the drain loop (one fiber at a time,
  // so post-abort unwinding is serial by construction) wants us to unwind.
  if (aborted_ && !unwinding) throw Aborted{};
}

void Engine::ready_push(int global) {
  ready_.emplace_back(procs_[static_cast<std::size_t>(global)].now(), global);
  std::push_heap(ready_.begin(), ready_.end(), std::greater<>());
}

int Engine::ready_pop() {
  std::pop_heap(ready_.begin(), ready_.end(), std::greater<>());
  const int global = ready_.back().second;
  ready_.pop_back();
  return global;
}

int Engine::pick_claim() {
  // The heap holds every runnable proc but the running one (which pushed
  // itself first unless it blocked), and its top is exactly the proc the
  // old linear scan found: lowest clock, ties to the lowest index.  The
  // picked proc leaves the heap: it is about to run and its clock to move.
  if (!ready_.empty()) {
    if (!perturb_) return ready_pop();
    // Schedule perturbation: break the tie by a seeded draw instead of
    // lowest index.  Any tie order is a legal serialisation of the same
    // virtual-time schedule, so correct programs are insensitive to the
    // choice.  The tie group is every queued proc at the lowest clock, popped
    // in index order — the same candidates, in the same order, as the scan
    // this replaced, so the RNG stream consumes identically and perturbed
    // runs stay byte-for-byte reproducible across engine versions.
    const double best_clock = ready_.front().first;
    ties_.clear();
    while (!ready_.empty() && ready_.front().first == best_clock) {
      ties_.push_back(ready_pop());
    }
    const std::size_t pick =
        ties_.size() > 1 ? perturb_rng_.next_u64() % ties_.size() : 0;
    for (std::size_t i = 0; i < ties_.size(); ++i) {
      if (i != pick) ready_push(ties_[i]);
    }
    return ties_[pick];
  }
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
      // and renders the wait-for cycle.  Serialised: no proc is runnable.
      const std::string diagnosis = g_run_observer->diagnose_deadlock();
      if (!diagnosis.empty()) message += "\n" + diagnosis;
    }
    abort_run(std::make_exception_ptr(DeadlockError(message)));
  }
  return -1;
}

void Engine::abort_run(std::exception_ptr e) {
  if (!first_error_) first_error_ = e;
  aborted_ = true;
}

void Engine::observe_finish(int global) {
  if (g_run_observer == nullptr) return;
  const Proc& proc = procs_[static_cast<std::size_t>(global)];
  g_run_observer->on_proc_finished(global, proc.deferred(), proc.now());
}

void Engine::signal(int global_rank) {
  PARAMRIO_REQUIRE(global_rank >= 0 && global_rank < total_procs(),
                   "signal: bad rank");
  if (states_[static_cast<std::size_t>(global_rank)] == State::kBlocked) {
    states_[static_cast<std::size_t>(global_rank)] = State::kRunnable;
    ready_push(global_rank);
  }
}

void Engine::signal(int job, int rank) {
  PARAMRIO_REQUIRE(job >= 0 && job < njobs(), "signal: bad job");
  PARAMRIO_REQUIRE(rank >= 0 && rank < job_nprocs(job), "signal: bad rank");
  signal(jobs_[static_cast<std::size_t>(job)].first + rank);
}

}  // namespace paramrio::sim
