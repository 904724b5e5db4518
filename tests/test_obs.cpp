// Unit tests for the cross-layer profiler: span lifecycle and nesting,
// unbalanced-instrumentation detection, category rollups against the
// engine's own ProcStats, the metrics registry, and the determinism of the
// Chrome-trace and report exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "obs/critical_path.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"

namespace paramrio::obs {
namespace {

sim::Engine::Options opts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

/// attach/detach guard so a failing test cannot leak a dangling collector.
struct Attached {
  explicit Attached(Collector& c) { attach(&c); }
  ~Attached() { detach(); }
};

TEST(Registry, CountersAndValues) {
  MetricsRegistry reg;
  reg.add("s", "n", 2);
  reg.add("s", "n", 3);
  reg.set("s", "m", 7);
  reg.observe_max("s", "peak", 5);
  reg.observe_max("s", "peak", 3);
  reg.add_value("s", "t", 1.5);
  reg.add_value("s", "t", 0.25);
  EXPECT_EQ(reg.get("s", "n"), 5u);
  EXPECT_EQ(reg.get("s", "m"), 7u);
  EXPECT_EQ(reg.get("s", "peak"), 5u);
  EXPECT_DOUBLE_EQ(reg.get_value("s", "t"), 1.75);
  EXPECT_EQ(reg.get("s", "absent"), 0u);
  EXPECT_EQ(reg.get("absent", "n"), 0u);
  EXPECT_TRUE(reg.has_scope("s"));
  EXPECT_FALSE(reg.has_scope("absent"));
}

TEST(Registry, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 1.2345678901234567e-9,
                   9007199254740993.0, -2.5}) {
    EXPECT_DOUBLE_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(format_double(std::nan("")), "0");  // JSON has no NaN
}

TEST(Registry, JsonEscapes) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Span, NoOpWithoutCollectorOrSimulation) {
  // Outside a simulation even with a collector attached.
  Collector c;
  Attached guard(c);
  {
    OBS_SPAN("ignored", TimeCategory::kCpu);
    span_counter("ignored", 1);
    counter_sample("ignored", 1.0);
  }
  EXPECT_TRUE(c.spans().empty());
  EXPECT_TRUE(c.samples().empty());

  // Inside a simulation with no collector attached.
  detach();
  sim::Engine::run(opts(1), [](sim::Proc& p) {
    OBS_SPAN("also_ignored", TimeCategory::kCpu);
    p.advance(1.0);
  });
  EXPECT_TRUE(c.spans().empty());
  attach(&c);  // let the guard detach cleanly
}

TEST(Span, RecordsNestingDepthAndCategoryDeltas) {
  Collector c;
  Attached guard(c);
  sim::Engine::run(opts(2), [](sim::Proc& p) {
    OBS_SPAN("outer", TimeCategory::kIo);
    p.advance(0.5, sim::TimeCategory::kCpu);
    {
      OBS_SPAN("inner", TimeCategory::kComm);
      span_counter("bytes", 100);
      span_counter("bytes", 28);
      p.advance(0.25, sim::TimeCategory::kComm);
    }
    p.advance(0.125, sim::TimeCategory::kIo);
  });
  ASSERT_TRUE(c.balanced());
  ASSERT_EQ(c.spans().size(), 4u);  // 2 ranks x 2 spans
  ASSERT_EQ(c.ranks(), 2);

  for (const SpanRecord& s : c.spans()) {
    if (s.name == "inner") {
      EXPECT_EQ(s.depth, 1);
      EXPECT_EQ(s.category, TimeCategory::kComm);
      EXPECT_DOUBLE_EQ(s.comm_dt, 0.25);
      EXPECT_DOUBLE_EQ(s.cpu_dt, 0.0);
      // Same-name counters merge on the open span.
      ASSERT_EQ(s.counters.size(), 1u);
      EXPECT_EQ(s.counters[0].first, "bytes");
      EXPECT_EQ(s.counters[0].second, 128u);
    } else {
      ASSERT_EQ(s.name, "outer");
      EXPECT_EQ(s.depth, 0);
      // Inclusive deltas: the inner span's comm time is covered too.
      EXPECT_DOUBLE_EQ(s.cpu_dt, 0.5);
      EXPECT_DOUBLE_EQ(s.comm_dt, 0.25);
      EXPECT_DOUBLE_EQ(s.io_dt, 0.125);
      EXPECT_DOUBLE_EQ(s.duration(), 0.875);
    }
  }
}

TEST(Span, RollupMatchesProcStats) {
  Collector c;
  Attached guard(c);
  auto res = sim::Engine::run(opts(3), [](sim::Proc& p) {
    OBS_SPAN("all", TimeCategory::kCpu);
    p.advance(0.1 * (p.rank() + 1), sim::TimeCategory::kCpu);
    p.advance(0.25, sim::TimeCategory::kComm);
    p.advance(0.0625, sim::TimeCategory::kIo);
  });
  ASSERT_TRUE(c.balanced());
  for (const SpanRecord& s : c.spans()) {
    const sim::ProcStats& st = res.stats[static_cast<std::size_t>(s.rank)];
    EXPECT_DOUBLE_EQ(s.cpu_dt, st.cpu_time);
    EXPECT_DOUBLE_EQ(s.comm_dt, st.comm_time);
    EXPECT_DOUBLE_EQ(s.io_dt, st.io_time);
    EXPECT_DOUBLE_EQ(s.duration(), st.total());
  }
}

TEST(Span, UnbalancedInstrumentationIsDetected) {
  Collector c;
  Attached guard(c);
  sim::Engine::run(opts(1), [&](sim::Proc& p) {
    c.begin_span(p, "left_open", TimeCategory::kCpu);
    p.advance(1.0);
  });
  EXPECT_FALSE(c.balanced());
  ASSERT_EQ(c.open_spans(0).size(), 1u);
  EXPECT_EQ(c.open_spans(0)[0], "left_open");

  // Ending with nothing open throws (and the engine rethrows it).
  Collector c2;
  attach(&c2);
  EXPECT_THROW(
      sim::Engine::run(opts(1), [&](sim::Proc& p) { c2.end_span(p); }),
      LogicError);
  attach(&c);  // restore for the guard
}

TEST(Span, CounterSamplesAreRecorded) {
  Collector c;
  Attached guard(c);
  sim::Engine::run(opts(1), [](sim::Proc& p) {
    p.advance(0.5);
    counter_sample("window_fill", 4096.0);
  });
  ASSERT_EQ(c.samples().size(), 1u);
  EXPECT_EQ(c.samples()[0].name, "window_fill");
  EXPECT_DOUBLE_EQ(c.samples()[0].value, 4096.0);
  EXPECT_DOUBLE_EQ(c.samples()[0].time, 0.5);
}

void run_workload(Collector& c) {
  attach(&c);
  sim::Engine::run(opts(2), [](sim::Proc& p) {
    OBS_SPAN("phase_a", TimeCategory::kCpu);
    p.advance(1.0 / 3.0);
    counter_sample("fill", 1234.5);
    {
      OBS_SPAN("phase_b", TimeCategory::kIo);
      span_counter("bytes", 4096);
      p.advance(0.1, sim::TimeCategory::kIo);
    }
  });
  detach();
}

TEST(Exporters, ChromeTraceIsDeterministicAndWellFormed) {
  Collector a, b;
  run_workload(a);
  run_workload(b);
  std::string ja = chrome_trace_json(a);
  std::string jb = chrome_trace_json(b);
  EXPECT_EQ(ja, jb);  // byte-identical across identical runs

  // Structural spot-checks (full JSON parsing is CI's job).
  EXPECT_NE(ja.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ja.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(ja.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(ja.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(ja.find("phase_b"), std::string::npos);
  EXPECT_EQ(ja.find("\n\n"), std::string::npos);
}

TEST(Exporters, RegistryJsonIsDeterministic) {
  Collector a, b;
  run_workload(a);
  run_workload(b);
  a.registry().add("net", "bytes", 42);
  b.registry().add("net", "bytes", 42);
  EXPECT_EQ(a.registry().to_json(2), b.registry().to_json(2));
  EXPECT_NE(a.registry().to_json(2).find("\"net\""), std::string::npos);
}

TEST(Exporters, ReportAggregatesPhases) {
  Collector c;
  run_workload(c);
  Report r = build_report(c);
  ASSERT_EQ(r.ranks.size(), 2u);
  const PhaseStats* a = r.phase("phase_a");
  const PhaseStats* b = r.phase("phase_b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->calls, 2u);
  EXPECT_NEAR(a->total_time, 2.0 * (1.0 / 3.0 + 0.1), 1e-12);
  EXPECT_NEAR(b->io_time, 0.2, 1e-12);
  EXPECT_EQ(r.counter_sum("phase_b", "bytes"), 8192u);
  // Per-rank decomposition covers each rank's whole accounted time.
  for (const RankBreakdown& rb : r.ranks) {
    EXPECT_NEAR(rb.total_time, 1.0 / 3.0 + 0.1, 1e-12);
  }
  std::string text = report_text(r);
  EXPECT_NE(text.find("phase_a"), std::string::npos);
  EXPECT_NE(text.find("io-frac"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Timeline: virtual-clock gauge tracks.
// ---------------------------------------------------------------------------

TEST(Timeline, DedupsConsecutiveEqualValues) {
  Timeline tl;
  tl.record("q", 0.0, 1.0, /*integer=*/true);
  tl.record("q", 1.0, 1.0, /*integer=*/true);  // gauge did not move: dropped
  tl.record("q", 2.0, 2.0, /*integer=*/true);
  tl.record("rate", 0.5, 0.25);
  EXPECT_EQ(tl.points(), 3u);
  ASSERT_EQ(tl.tracks().size(), 2u);
  const Timeline::Track& q = tl.tracks().at("q");
  EXPECT_TRUE(q.integer);
  ASSERT_EQ(q.points.size(), 2u);
  EXPECT_DOUBLE_EQ(q.points[0].time, 0.0);
  EXPECT_DOUBLE_EQ(q.points[1].value, 2.0);
  EXPECT_FALSE(tl.tracks().at("rate").integer);
  tl.clear();
  EXPECT_TRUE(tl.empty());
}

TEST(Timeline, IntegerFingerprintStripsTimestampsAndDoubleTracks) {
  Timeline a, b;
  a.record("q", 0.0, 1.0, true);
  a.record("q", 1.0, 2.0, true);
  a.record("rate", 0.0, 0.5);  // double track: not part of the fingerprint
  b.record("q", 5.0, 1.0, true);  // same values at shifted times
  b.record("q", 9.0, 2.0, true);
  b.record("rate", 0.0, 0.75);
  EXPECT_EQ(a.integer_fingerprint(), "q:1,2\n");
  EXPECT_EQ(a.integer_fingerprint(), b.integer_fingerprint());
}

TEST(Timeline, JsonIsDeterministicAndTyped) {
  Timeline a, b;
  for (Timeline* t : {&a, &b}) {
    t->record("srv/backlog", 0.25, 3.0, true);
    t->record("hit_rate", 0.5, 1.0 / 3.0);
  }
  EXPECT_EQ(a.to_json(2), b.to_json(2));
  EXPECT_NE(a.to_json().find("\"srv/backlog\":{\"integer\":true"),
            std::string::npos);
  EXPECT_NE(a.to_json().find("\"integer\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram: log2-µs buckets, exact percentiles, nonzero-only export.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketingIsExactBitArithmetic) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_of(1e-6), 0);    // exactly 1 µs
  EXPECT_EQ(Histogram::bucket_of(1.5e-6), 1);
  EXPECT_EQ(Histogram::bucket_of(2e-6), 2);    // power-of-two edges round up
  EXPECT_EQ(Histogram::bucket_of(3e-6), 2);
  EXPECT_EQ(Histogram::bucket_of(4e-6), 3);
  // A bucket's samples never exceed its upper edge.
  for (double s : {3e-6, 1e-3, 0.5, 7.25}) {
    EXPECT_LE(s, Histogram::bucket_upper_seconds(Histogram::bucket_of(s)));
  }
}

TEST(Histogram, PercentilesAreExactNearestRank) {
  Histogram h;
  for (int i = 100; i >= 1; --i) {  // insertion order must not matter
    h.record(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.050);
  EXPECT_DOUBLE_EQ(h.percentile(95.0), 0.095);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.099);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.100);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
}

TEST(Histogram, ExportIsNonzeroOnly) {
  MetricsRegistry reg;
  Histogram empty;
  empty.export_to(reg, "hist:never");
  EXPECT_FALSE(reg.has_scope("hist:never"));  // empty histogram: no scope

  Histogram h;
  h.record(3e-6);  // bucket 2
  h.record(3e-6);
  h.record(0.5);
  h.export_to(reg, "hist:op");
  ASSERT_TRUE(reg.has_scope("hist:op"));
  EXPECT_EQ(reg.get("hist:op", "bucket_2"), 2u);
  EXPECT_EQ(reg.get("hist:op", "count"), 3u);
  EXPECT_GT(reg.get_value("hist:op", "p99"), 0.0);
  // Only occupied buckets persist.
  const auto& counters = reg.scopes().at("hist:op").counters;
  EXPECT_EQ(counters.count("bucket_0"), 0u);
  EXPECT_EQ(counters.count("bucket_1"), 0u);
}

// ---------------------------------------------------------------------------
// Detail gating: with detail off, the collector records no gauges, latency
// samples or wait edges — the pre-PR export surface is untouched.
// ---------------------------------------------------------------------------

TEST(Detail, OffByDefaultRecordsNothing) {
  Collector c;
  Attached guard(c);
  EXPECT_FALSE(c.detail());
  sim::Engine::run(opts(1), [](sim::Proc& p) {
    gauge("track", 1.0);
    gauge_int("itrack", 2);
    latency_sample("op", 0.5);
    record_wait(WaitKind::kServerQueue, 0.0, 0.5);
    p.advance(1.0);
  });
  EXPECT_TRUE(c.timeline().empty());
  EXPECT_TRUE(c.histograms().empty());
  EXPECT_TRUE(c.waits().empty());
  const std::string before = c.registry().to_json(2);
  c.export_detail();  // must be a no-op with nothing recorded
  EXPECT_EQ(c.registry().to_json(2), before);
}

TEST(Detail, OnRecordsAndExportsUnderDedicatedScopes) {
  Collector c;
  c.set_detail(true);
  Attached guard(c);
  sim::Engine::run(opts(1), [](sim::Proc& p) {
    p.advance(0.5);
    gauge_int("srv/backlog", 3);
    latency_sample("pfs.read", 2e-3);
    record_wait(WaitKind::kTokenWait, 0.25, 0.5);
  });
  ASSERT_EQ(c.waits().size(), 1u);
  EXPECT_EQ(c.waits()[0].kind, WaitKind::kTokenWait);
  EXPECT_DOUBLE_EQ(c.waits()[0].duration(), 0.25);
  c.export_detail();
  EXPECT_TRUE(c.registry().has_scope("hist:pfs.read"));
  EXPECT_TRUE(c.registry().has_scope("timeline:srv/backlog"));
  EXPECT_EQ(c.registry().get("timeline:srv/backlog", "peak"), 3u);
}

TEST(Detail, DeferredModeWaitsAreDropped) {
  // Waits observed under the shadow clock (write-behind settling) describe
  // work the rank did not actually block on; they must not become blame.
  Collector c;
  c.set_detail(true);
  Attached guard(c);
  sim::Engine::run(opts(1), [&c](sim::Proc& p) {
    p.advance(0.25);
    {
      sim::DeferredScope defer(p);
      c.record_wait(p, WaitKind::kSettleWait, 0.25, 0.5);
    }
    c.record_wait(p, WaitKind::kSettleWait, 0.25, 0.75);
  });
  ASSERT_EQ(c.waits().size(), 1u);
  EXPECT_DOUBLE_EQ(c.waits()[0].t_end, 0.75);
}

// ---------------------------------------------------------------------------
// Critical-path blame on a synthetic workload with known answers.
// ---------------------------------------------------------------------------

TEST(Blame, ReattributesWaitsAndSumsToWall) {
  Collector c;
  c.set_detail(true);
  Attached guard(c);
  sim::Engine::run(opts(2), [](sim::Proc& p) {
    OBS_SPAN("dump", TimeCategory::kIo);
    {
      OBS_SPAN("phase_io", TimeCategory::kIo);
      const double t0 = p.now();
      p.advance(0.5, sim::TimeCategory::kIo);
      // 0.2 s of that io was really a server queue.
      record_wait(WaitKind::kServerQueue, t0, t0 + 0.2);
    }
    {
      OBS_SPAN("phase_comm", TimeCategory::kComm);
      const double t0 = p.now();
      p.advance(0.25, sim::TimeCategory::kComm);
      // 0.1 s of that comm was idle at a receive.
      record_wait(WaitKind::kRecvWait, t0, t0 + 0.1);
    }
    p.advance(0.125, sim::TimeCategory::kCpu);  // root time outside any phase
  });
  ASSERT_TRUE(c.balanced());

  const BlameReport r = build_blame(c, "dump");
  ASSERT_EQ(r.nranks, 2);
  EXPECT_DOUBLE_EQ(r.wall_time, 0.875);
  constexpr double kEps = 1e-12;
  for (const RankBlame& rb : r.ranks) {
    EXPECT_NEAR(rb.wall, 0.875, kEps);
    EXPECT_NEAR(rb.blame[static_cast<int>(BlameCategory::kIo)], 0.3, kEps);
    EXPECT_NEAR(rb.blame[static_cast<int>(BlameCategory::kServerQueue)], 0.2,
                kEps);
    EXPECT_NEAR(rb.blame[static_cast<int>(BlameCategory::kComm)], 0.15, kEps);
    EXPECT_NEAR(rb.blame[static_cast<int>(BlameCategory::kRecvWait)], 0.1,
                kEps);
    // The 0.125 s cpu advance is not covered by any depth-1 phase.
    EXPECT_NEAR(rb.blame[static_cast<int>(BlameCategory::kUnattributed)],
                0.125, kEps);
    double total = 0.0;
    for (double v : rb.blame) total += v;
    EXPECT_NEAR(total, rb.wall, kEps);  // blame is a decomposition, not a sample
    EXPECT_NEAR(rb.attributed, 0.75, kEps);
  }
  EXPECT_NEAR(r.attributed_fraction, 0.75 / 0.875, kEps);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "phase_comm");  // sorted by name
  EXPECT_EQ(r.phases[1].name, "phase_io");
  EXPECT_DOUBLE_EQ(r.phases[1].imbalance(), 1.0);  // symmetric workload

  // Renderings are deterministic and mention what matters.
  EXPECT_EQ(blame_text(r), blame_text(build_blame(c, "dump")));
  const std::string json = blame_json(r);
  EXPECT_EQ(json, blame_json(build_blame(c, "dump")));
  EXPECT_NE(json.find("\"server_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_rank\""), std::string::npos);
}

TEST(Blame, MissingRootYieldsEmptyReport) {
  Collector c;
  Attached guard(c);
  sim::Engine::run(opts(1), [](sim::Proc& p) {
    OBS_SPAN("other", TimeCategory::kCpu);
    p.advance(0.5);
  });
  const BlameReport r = build_blame(c, "dump");
  EXPECT_EQ(r.nranks, 0);
  EXPECT_TRUE(r.phases.empty());
  EXPECT_TRUE(r.ranks.empty());
}

}  // namespace
}  // namespace paramrio::obs
