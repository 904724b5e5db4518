// Unit tests for the conservative virtual-time engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <functional>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "golden_util.hpp"
#include "sim/engine.hpp"

namespace paramrio::sim {
namespace {

Engine::Options opts(int n) {
  Engine::Options o;
  o.nprocs = n;
  return o;
}

TEST(Engine, SingleProcAdvances) {
  auto r = Engine::run(opts(1), [](Proc& p) {
    p.advance(1.5);
    p.advance(0.5, TimeCategory::kIo);
  });
  EXPECT_DOUBLE_EQ(r.finish_times[0], 2.0);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.stats[0].cpu_time, 1.5);
  EXPECT_DOUBLE_EQ(r.stats[0].io_time, 0.5);
}

TEST(Engine, ClockAtLeastOnlyMovesForward) {
  auto r = Engine::run(opts(1), [](Proc& p) {
    p.advance(3.0);
    p.clock_at_least(1.0, TimeCategory::kComm);  // no-op
    EXPECT_DOUBLE_EQ(p.now(), 3.0);
    p.clock_at_least(4.0, TimeCategory::kComm);
    EXPECT_DOUBLE_EQ(p.now(), 4.0);
  });
  EXPECT_DOUBLE_EQ(r.stats[0].comm_time, 1.0);
}

TEST(Engine, NegativeAdvanceThrows) {
  EXPECT_THROW(
      Engine::run(opts(1), [](Proc& p) { p.advance(-1.0); }), LogicError);
}

TEST(Engine, ExceptionInBodyPropagates) {
  EXPECT_THROW(Engine::run(opts(4),
                           [](Proc& p) {
                             p.advance(0.1);
                             if (p.rank() == 2) throw IoError("boom");
                             p.advance(10.0);
                           }),
               IoError);
}

TEST(Engine, ExecutionIsSerializedAndDeterministic) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  // Record the order in which ranks execute their events; with the
  // min-clock scheduler this order is a pure function of the virtual times.
  std::vector<int> order;
  Engine::run(opts(3), [&](Proc& p) {
    // rank 0 events at t=1,2,3; rank 1 at t=2,4,6; rank 2 at t=3,6,9
    for (int i = 0; i < 3; ++i) {
      p.advance(static_cast<double>(p.rank() + 1));
      order.push_back(p.rank());
    }
  });
  // Expected event completion order (time, rank):
  // (1,0)(2,0)(2,1)(3,0)(3,2)(4,1)(6,1)(6,2)(9,2)
  std::vector<int> expected = {0, 0, 1, 0, 2, 1, 1, 2, 2};
  EXPECT_EQ(order, expected);
}

TEST(Engine, DeterministicAcrossRepeatedRuns) {
  auto run_once = [] {
    std::vector<int> order;
    Engine::run(opts(5), [&](Proc& p) {
      for (int i = 0; i < 10; ++i) {
        p.advance(p.rng().next_double() + 0.01);
        order.push_back(p.rank());
      }
    });
    return order;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, PerRankRngStreamsDiffer) {
  std::vector<std::uint64_t> first(3);
  Engine::run(opts(3), [&](Proc& p) {
    first[static_cast<std::size_t>(p.rank())] = p.rng().next_u64();
  });
  EXPECT_NE(first[0], first[1]);
  EXPECT_NE(first[1], first[2]);
}

TEST(Engine, SeedChangesRngStreams) {
  Engine::Options a = opts(1), b = opts(1);
  b.seed = 999;
  std::uint64_t va = 0, vb = 0;
  Engine::run(a, [&](Proc& p) { va = p.rng().next_u64(); });
  Engine::run(b, [&](Proc& p) { vb = p.rng().next_u64(); });
  EXPECT_NE(va, vb);
}

TEST(Engine, BlockedForeverIsDeadlock) {
  EXPECT_THROW(Engine::run(opts(2),
                           [](Proc& p) {
                             if (p.rank() == 0) p.block();  // nobody signals
                           }),
               DeadlockError);
}

TEST(Engine, AllBlockedIsDeadlock) {
  EXPECT_THROW(Engine::run(opts(3), [](Proc& p) { p.block(); }),
               DeadlockError);
}

TEST(Engine, SignalWakesBlockedProc) {
  // Rank 0 blocks; rank 1 advances then signals it awake.
  std::vector<double> woke(2, -1.0);
  Engine::run(opts(2), [&](Proc& p) {
    if (p.rank() == 0) {
      p.block();
      woke[0] = p.now();
    } else {
      p.advance(5.0);
      p.engine().signal(0);
      p.advance(1.0);
    }
  });
  // Rank 0's clock never advanced — blocking does not consume virtual time;
  // the wake simply makes it runnable again at its own clock.
  EXPECT_DOUBLE_EQ(woke[0], 0.0);
}

TEST(Engine, CurrentProcAccessor) {
  EXPECT_FALSE(in_simulation());
  EXPECT_THROW(current_proc(), LogicError);
  Engine::run(opts(2), [](Proc& p) {
    EXPECT_TRUE(in_simulation());
    EXPECT_EQ(&current_proc(), &p);
  });
  EXPECT_FALSE(in_simulation());
}

TEST(Timeline, FifoQueueing) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 2.0), 2.0);   // idle: starts immediately
  EXPECT_DOUBLE_EQ(tl.acquire(1.0, 2.0), 4.0);   // queued behind first
  EXPECT_DOUBLE_EQ(tl.acquire(10.0, 2.0), 12.0); // idle again
  tl.reset();
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 1.0), 1.0);
}

TEST(Engine, SharedTimelineSerializesContendingProcs) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  // 4 procs each request 1s of service on the same resource at t=0.
  Timeline disk;
  auto r = Engine::run(opts(4), [&](Proc& p) {
    p.use_resource(disk, 1.0, TimeCategory::kIo);
  });
  // Served in rank order (deterministic tie-break): completions 1,2,3,4.
  EXPECT_DOUBLE_EQ(r.finish_times[0], 1.0);
  EXPECT_DOUBLE_EQ(r.finish_times[1], 2.0);
  EXPECT_DOUBLE_EQ(r.finish_times[2], 3.0);
  EXPECT_DOUBLE_EQ(r.finish_times[3], 4.0);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(Engine, IndependentTimelinesRunInParallel) {
  std::vector<Timeline> disks(4);
  auto r = Engine::run(opts(4), [&](Proc& p) {
    p.use_resource(disks[static_cast<std::size_t>(p.rank())], 1.0,
                   TimeCategory::kIo);
  });
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

TEST(Engine, ResourceArbitrationFollowsVirtualTime) {
  // Rank 1 reaches the disk at t=0.5, rank 0 at t=2.0: rank 1 must be
  // served first even though rank 0 has the lower rank id.
  Timeline disk;
  auto r = Engine::run(opts(2), [&](Proc& p) {
    p.advance(p.rank() == 0 ? 2.0 : 0.5);
    p.use_resource(disk, 1.0, TimeCategory::kIo);
  });
  EXPECT_DOUBLE_EQ(r.finish_times[1], 1.5);  // 0.5 + 1.0, no queueing
  EXPECT_DOUBLE_EQ(r.finish_times[0], 3.0);  // idle again by t=2.0
}

TEST(Engine, StatsAccumulateAcrossCategories) {
  auto r = Engine::run(opts(1), [](Proc& p) {
    p.advance(1.0, TimeCategory::kCpu);
    p.advance(2.0, TimeCategory::kComm);
    p.advance(3.0, TimeCategory::kIo);
    p.stats().bytes_sent += 100;
    p.stats().io_requests += 2;
  });
  EXPECT_DOUBLE_EQ(r.stats[0].cpu_time, 1.0);
  EXPECT_DOUBLE_EQ(r.stats[0].comm_time, 2.0);
  EXPECT_DOUBLE_EQ(r.stats[0].io_time, 3.0);
  EXPECT_EQ(r.stats[0].bytes_sent, 100u);
  EXPECT_EQ(r.stats[0].io_requests, 2u);
}

TEST(Engine, ZeroProcsRejected) {
  EXPECT_THROW(Engine::run(opts(0), [](Proc&) {}), LogicError);
}

TEST(Engine, ManyProcsComplete) {
  auto r = Engine::run(opts(64), [](Proc& p) {
    for (int i = 0; i < 5; ++i) p.advance(0.25);
  });
  for (double t : r.finish_times) EXPECT_DOUBLE_EQ(t, 1.25);
}


TEST(Engine, AbortWakesBlockedProcs) {
  // Rank 1 blocks forever; rank 0 throws.  The abort must unwind rank 1
  // rather than hang the run, and rank 0's error must surface.
  EXPECT_THROW(Engine::run(opts(3),
                           [](Proc& p) {
                             if (p.rank() == 1) p.block();
                             if (p.rank() == 0) {
                               p.advance(0.5);
                               throw IoError("rank 0 failed");
                             }
                             p.advance(1.0);
                           }),
               IoError);
}

TEST(Engine, SignalBeforeBlockIsNotLost) {
  // A signal delivered while the target is runnable is a no-op; the target
  // must still be able to block later and be woken by a subsequent signal.
  Engine::run(opts(2), [](Proc& p) {
    if (p.rank() == 1) {
      p.engine().signal(0);  // rank 0 is runnable: no-op
      p.advance(1.0);
      p.engine().signal(0);  // this one matters
    } else {
      p.advance(0.5);
      p.block();
      EXPECT_DOUBLE_EQ(p.now(), 0.5);
    }
  });
}

TEST(Timeline, RaiseLiftsTheHorizonMonotonically) {
  Timeline tl;
  tl.raise(5.0);
  EXPECT_DOUBLE_EQ(tl.next_free(), 5.0);
  tl.raise(3.0);  // never lowers
  EXPECT_DOUBLE_EQ(tl.next_free(), 5.0);
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 1.0), 6.0);  // queued behind the horizon
}

TEST(Timeline, BackgroundClassYieldsToForeground) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 2.0), 2.0);
  // Background waits for foreground work, then for earlier background.
  EXPECT_DOUBLE_EQ(tl.acquire(1.0, 3.0, /*background=*/true), 5.0);
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 1.0, /*background=*/true), 6.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0, /*background=*/true), 6.0);
  // Foreground never reads the background horizon.
  EXPECT_DOUBLE_EQ(tl.next_free(), 2.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.acquire(3.0, 1.0), 4.0);
  // A background proc's use_resource books the background class.
  Engine::run(opts(1), [&](Proc& p) {
    p.set_background_io();
    p.use_resource(tl, 1.0, TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), 7.0);
    EXPECT_DOUBLE_EQ(tl.next_free(), 4.0);
    p.clear_background_io();
    p.use_resource(tl, 1.0, TimeCategory::kIo);
    EXPECT_DOUBLE_EQ(p.now(), 8.0);
    EXPECT_DOUBLE_EQ(tl.next_free(), 8.0);
  });
  tl.reset();
  EXPECT_DOUBLE_EQ(tl.acquire(0.0, 1.0, /*background=*/true), 1.0);
}

// ---- scheduling order ------------------------------------------------------

/// A 6-proc advance/block/signal workload with equal-clock ties at every
/// step: even ranks advance by exactly 1.0, so they meet at every integer
/// clock, while odd ranks take RNG-drawn steps that interleave with them.
/// Returns (execution order, finish times); -3 marks rank 3 resuming after
/// its block.
std::pair<std::vector<int>, std::vector<double>> schedule_trace(
    std::uint64_t perturb) {
  testutil::ScopedNoSchedSeed no_seed;  // seed 0 is the classic tie order
  Engine::Options o = opts(6);
  o.perturb_seed = perturb;
  std::vector<int> order;
  auto r = Engine::run(o, [&](Proc& p) {
    const bool unit = p.rank() % 2 == 0;
    for (int i = 0; i < 4; ++i) {
      p.advance(unit ? 1.0 : p.rng().next_double() + 0.5);
      order.push_back(p.rank());
      if (p.rank() == 3 && i == 1) {
        p.block();
        order.push_back(-3);  // resumption marker
      }
      if (p.rank() == 5 && i == 2) p.engine().signal(3);
    }
  });
  return {order, r.finish_times};
}

// The golden schedule.  A perturbed pick draws among the equal-clock prefix
// of the ready queue, enumerated in index order, and the clean finish of a
// proc makes exactly one pick.  Any rewrite of the ready queue or the fiber
// switch must reproduce these orders exactly, or perturbed runs stop
// reproducing across engine versions.
TEST(EngineSchedule, GoldenOrderAndFinishTimesArePinned) {
  const std::vector<std::vector<int>> golden = {
      // seed 0: every tie goes to the lowest index
      {3, 1, 0, 2, 4, 5, 3, 5, 1, 0, 2, 4, 5, -3, 3, 3, 1, 0, 2, 4, 1, 5, 0,
       2, 4},
      // seed 1
      {3, 1, 0, 2, 4, 5, 3, 5, 1, 0, 4, 2, 5, -3, 3, 3, 1, 0, 2, 4, 1, 5, 0,
       2, 4},
      // seed 2
      {3, 1, 2, 4, 0, 5, 3, 5, 1, 4, 2, 0, 5, -3, 3, 3, 1, 0, 2, 4, 1, 5, 4,
       2, 0},
  };
  const std::vector<double> finish = {4.0, 3.15562862364999,
                                      4.0, 2.3684682192461572,
                                      4.0, 3.2138625028418808};
  std::vector<std::vector<int>> orders;
  for (std::uint64_t seed : {0ull, 1ull, 2ull}) {
    auto [order, times] = schedule_trace(seed);
    EXPECT_EQ(order, golden[seed]) << "perturb=" << seed;
    EXPECT_EQ(times, finish) << "perturb=" << seed;
    orders.push_back(std::move(order));
  }
  // The tie shuffle is exercised: both perturbed orders leave the classic one.
  EXPECT_NE(orders[1], orders[0]);
  EXPECT_NE(orders[2], orders[0]);
}

// ---- fibers ----------------------------------------------------------------

TEST(EngineBackends, FiberBackendScalesToManyProcs) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  // Far beyond what one OS thread per rank could sensibly run under a test:
  // 2048 fibers, each doing real work, in one scheduler thread.
  auto r = Engine::run(opts(2048), [](Proc& p) {
    p.advance(0.001 * (p.rank() % 7 + 1));
    p.advance(0.5);
  });
  EXPECT_EQ(r.finish_times.size(), 2048u);
  EXPECT_DOUBLE_EQ(r.makespan, 0.007 + 0.5);
}

TEST(EngineBackends, DeepRecursionFitsTheDefaultFiberStack) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  // Recursion deep enough to need more than a page of fiber stack.
  std::function<double(Proc&, int)> rec = [&](Proc& p, int d) -> double {
    volatile char pad[512] = {0};
    if (d == 0) return pad[0] + p.now();
    return rec(p, d - 1);
  };
  auto r = Engine::run(opts(2), [&](Proc& p) {
    p.advance(1.0);
    rec(p, 64);
  });
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

/// The calling context's floating-point control state: the rounding mode
/// (glibc reads the x87 control word) and, on SSE, MXCSR's rounding and
/// flush-to-zero bits.
std::pair<int, unsigned> fp_control() {
#if defined(__SSE2__)
  return {std::fegetround(),
          _mm_getcsr() & (_MM_ROUND_MASK | _MM_FLUSH_ZERO_MASK)};
#else
  return {std::fegetround(), 0u};
#endif
}

void set_fp_control(int round, bool flush_to_zero) {
  std::fesetround(round);
#if defined(__SSE2__)
  _MM_SET_FLUSH_ZERO_MODE(flush_to_zero ? _MM_FLUSH_ZERO_ON
                                        : _MM_FLUSH_ZERO_OFF);
#else
  (void)flush_to_zero;
#endif
}

// The System V ABI makes the FP control state callee-saved, so it belongs
// to each fiber: a switch must carry it away with the suspended fiber and
// bring back the resumed one's, and the scheduler's own is left untouched.
TEST(EngineBackends, FloatingPointControlStateBelongsToEachFiber) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  const std::pair<int, unsigned> outer = fp_control();
  set_fp_control(FE_UPWARD, true);
  const std::pair<int, unsigned> upward = fp_control();
  set_fp_control(FE_TONEAREST, false);
  const std::pair<int, unsigned> nearest = fp_control();
  std::pair<int, unsigned> rank1_saw, rank0_resumed_with;
  Engine::run(opts(2), [&](Proc& p) {
    if (p.rank() == 0) {
      set_fp_control(FE_UPWARD, true);
      p.advance(1.0);  // rank 1, still at clock 0, runs now
      rank0_resumed_with = fp_control();
    } else {
      rank1_saw = fp_control();
      p.advance(2.0);
    }
  });
  const std::pair<int, unsigned> after = fp_control();
  set_fp_control(FE_TONEAREST, false);  // whatever the run left behind
  EXPECT_EQ(outer, nearest);
  EXPECT_NE(upward, nearest);
  EXPECT_EQ(rank1_saw, nearest);
  EXPECT_EQ(rank0_resumed_with, upward);
  EXPECT_EQ(after, outer);
}

// ---- abort unwinding -------------------------------------------------------

TEST(EngineAbort, ProcBlockedInCollectiveStyleWaitUnwinds) {
  // Ranks 1..3 block in a gather-style wait that will never be satisfied;
  // rank 0 throws.  The abort must drain all suspended procs — running
  // their destructors — and rethrow rank 0's error, not hang or leak.
  struct Tracker {
    std::atomic<int>* count;
    explicit Tracker(std::atomic<int>* c) : count(c) {}
    ~Tracker() { count->fetch_add(1); }
  };
  std::atomic<int> destroyed{0};
  EXPECT_THROW(Engine::run(opts(4),
                           [&](Proc& p) {
                             Tracker t(&destroyed);
                             if (p.rank() == 0) {
                               p.advance(1.0);
                               throw IoError("rank 0 failed");
                             }
                             p.block();  // waiting for a message forever
                           }),
               IoError);
  EXPECT_EQ(destroyed.load(), 4);  // every rank's stack fully unwound
}

TEST(EngineAbort, NeverStartedProcsSkipTheirBodies) {
  // With enough ranks, some have not had their first dispatch when rank 0
  // throws at t=0; their bodies must not run during the drain.
  std::atomic<int> started{0};
  EXPECT_THROW(Engine::run(opts(32),
                           [&](Proc& p) {
                             if (p.rank() == 0) throw IoError("early");
                             started.fetch_add(1);
                             p.advance(1.0);
                           }),
               IoError);
  EXPECT_EQ(started.load(), 0);
}

TEST(EngineAbort, DestructorsMayAdvanceTheClockDuringUnwind) {
  // A destructor that yields (advances virtual time) while the abort
  // unwinds must complete without re-entering the scheduler fatally —
  // the regression behind flushing write-behind buffers from ~File().
  struct FlushOnExit {
    Proc* p;
    ~FlushOnExit() { p->advance(0.25, TimeCategory::kIo); }
  };
  EXPECT_THROW(Engine::run(opts(3),
                           [&](Proc& p) {
                             FlushOnExit f{&p};
                             if (p.rank() == 2) throw IoError("late");
                             p.block();
                           }),
               IoError);
}

TEST(EngineAbort, RepeatedRunsAfterAbortStayClean) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(
        Engine::run(opts(4),
                    [](Proc& p) {
                      if (p.rank() == 1) throw IoError("again");
                      p.block();
                    }),
        IoError);
  }
  // The engine is per-run state; a fresh run works normally.
  auto r = Engine::run(opts(2), [](Proc& p) { p.advance(1.0); });
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

// ---- multi-job tenancy -----------------------------------------------------

TEST(EngineJobs, RanksAreJobLocalAndGlobalRanksAreDense) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  std::vector<int> ranks, globals, jobs;
  std::vector<Engine::JobSpec> spec(2);
  spec[0].name = "a";
  spec[0].nprocs = 2;
  spec[0].body = [&](Proc& p) {
    ranks.push_back(p.rank());
    globals.push_back(p.global_rank());
    jobs.push_back(p.job());
    EXPECT_EQ(p.nprocs(), 2);
  };
  spec[1].name = "b";
  spec[1].nprocs = 3;
  spec[1].body = [&](Proc& p) {
    ranks.push_back(p.rank());
    globals.push_back(p.global_rank());
    jobs.push_back(p.job());
    EXPECT_EQ(p.nprocs(), 3);
  };
  Engine::Options o;
  auto results = Engine::run_jobs(o, std::move(spec));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "a");
  EXPECT_EQ(results[0].result.finish_times.size(), 2u);
  EXPECT_EQ(results[1].result.finish_times.size(), 3u);
  std::sort(ranks.begin(), ranks.end());
  std::sort(globals.begin(), globals.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 0, 1, 1, 2}));
  EXPECT_EQ(globals, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineJobs, StartTimeOffsetsTheJobsClockDomain) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  std::vector<Engine::JobSpec> spec(2);
  spec[0].nprocs = 1;
  spec[0].body = [](Proc& p) { p.advance(1.0); };
  spec[1].nprocs = 1;
  spec[1].start_time = 10.0;
  spec[1].body = [](Proc& p) {
    EXPECT_DOUBLE_EQ(p.now(), 10.0);
    EXPECT_DOUBLE_EQ(p.job_start(), 10.0);
    p.advance(1.0);
  };
  Engine::Options o;
  auto results = Engine::run_jobs(o, std::move(spec));
  EXPECT_DOUBLE_EQ(results[0].result.makespan, 1.0);
  EXPECT_DOUBLE_EQ(results[1].result.makespan, 11.0);  // absolute clocks
}

TEST(EngineJobs, CrossJobSignalByJobAndRank) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  std::vector<Engine::JobSpec> spec(2);
  spec[0].nprocs = 1;
  spec[0].body = [](Proc& p) {
    p.block();  // woken by job 1
    EXPECT_DOUBLE_EQ(p.now(), 0.0);
  };
  spec[1].nprocs = 1;
  spec[1].body = [](Proc& p) {
    p.advance(2.0);
    p.engine().signal(/*job=*/0, /*rank=*/0);
  };
  Engine::Options o;
  auto results = Engine::run_jobs(o, std::move(spec));
  ASSERT_EQ(results.size(), 2u);
}

TEST(EngineJobs, SingleJobRunJobsMatchesRun) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  auto body = [](Proc& p) {
    for (int i = 0; i < 3; ++i) p.advance(p.rng().next_double() + 0.1);
  };
  Engine::Options o = opts(4);
  auto direct = Engine::run(o, body);
  std::vector<Engine::JobSpec> spec(1);
  spec[0].nprocs = 4;
  spec[0].body = body;
  auto jobs = Engine::run_jobs(o, std::move(spec));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].result.finish_times, direct.finish_times);
  EXPECT_DOUBLE_EQ(jobs[0].result.makespan, direct.makespan);
}

TEST(EngineJobs, ExceptionInOneJobAbortsTheRun) {
  testutil::ScopedNoSchedSeed no_seed;  // the classic tie order
  std::vector<Engine::JobSpec> spec(2);
  spec[0].nprocs = 2;
  spec[0].body = [](Proc& p) { p.block(); };
  spec[1].nprocs = 1;
  spec[1].body = [](Proc& p) {
    p.advance(0.5);
    throw IoError("job 1 failed");
  };
  Engine::Options o;
  EXPECT_THROW(Engine::run_jobs(o, std::move(spec)), IoError);
}

class EngineFanSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineFanSweep, MakespanEqualsSlowestRank) {
  int n = GetParam();
  auto r = Engine::run(opts(n), [](Proc& p) {
    p.advance(0.1 * (p.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(r.makespan, 0.1 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineFanSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace
}  // namespace paramrio::sim
