// End-to-end profiler tests over the real application: every backend's
// checkpoint dump must be almost fully covered by named phase spans, the
// per-file statistics must land in the registry, the paper-figure reports
// must contain their phases, and traces must be byte-identical across runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"

namespace paramrio::bench {
namespace {

enzo::SimulationConfig tiny_config() {
  enzo::SimulationConfig c;
  c.root_dims = {16, 16, 16};
  c.particles_per_cell = 0.25;
  c.compute_per_cell = 0.0;
  return c;
}

RunSpec tiny_spec(Backend b, obs::Collector* col) {
  RunSpec spec;
  spec.machine = platform::origin2000_xfs();
  spec.config = tiny_config();
  spec.nprocs = 4;
  spec.backend = b;
  spec.collector = col;
  return spec;
}

class ObsBackend : public ::testing::TestWithParam<Backend> {};

// The acceptance property: depth-1 categorized spans account for >= 95% of
// each rank's dump wall time, under every backend.
TEST_P(ObsBackend, PhaseSpansCoverDumpTime) {
  obs::Collector col;
  run_enzo_io(tiny_spec(GetParam(), &col));
  ASSERT_TRUE(col.balanced());

  int dumps_seen = 0;
  for (const obs::SpanRecord& dump : col.spans()) {
    if (dump.name != "dump" || dump.depth != 0) continue;
    ++dumps_seen;
    double covered = 0.0;
    for (const obs::SpanRecord& child : col.spans()) {
      if (child.rank != dump.rank || child.depth != 1) continue;
      if (child.t_start < dump.t_start || child.t_end > dump.t_end) continue;
      covered += child.cpu_dt + child.comm_dt + child.io_dt;
    }
    double wall = dump.duration();
    if (wall > 0.0) {
      EXPECT_GE(covered, 0.95 * wall)
          << to_string(GetParam()) << " rank " << dump.rank << ": phases "
          << covered << "s of " << wall << "s dump";
    }
  }
  EXPECT_EQ(dumps_seen, 4);  // one depth-0 dump span per rank
}

// Spans and the engine agree: the sum of each rank's depth-0 span deltas
// can never exceed what the engine accounted to that rank.
TEST_P(ObsBackend, RankBreakdownIsConsistent) {
  obs::Collector col;
  run_enzo_io(tiny_spec(GetParam(), &col));
  obs::Report r = obs::build_report(col);
  ASSERT_EQ(r.ranks.size(), 4u);
  for (const obs::RankBreakdown& rb : r.ranks) {
    const std::string scope = "rank" + std::to_string(rb.rank);
    ASSERT_TRUE(col.registry().has_scope(scope));
    double engine_total = col.registry().get_value(scope, "total_time");
    EXPECT_LE(rb.total_time, engine_total + 1e-9);
    EXPECT_GT(rb.io_time, 0.0);  // a dump without I/O is not a dump
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ObsBackend,
                         ::testing::Values(Backend::kHdf4, Backend::kMpiIo,
                                           Backend::kHdf5, Backend::kPnetcdf),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(ObsEnzo, FileStatsPersistIntoRegistry) {
  obs::Collector col;
  run_enzo_io(tiny_spec(Backend::kMpiIo, &col));
  // File::close() folded its FileStats into "file:<path>|<hints_key>".
  const obs::MetricsRegistry& reg = col.registry();
  std::string file_scope;
  for (const auto& [scope, _] : reg.scopes()) {
    if (scope.rfind("file:dump.enzo|", 0) == 0) file_scope = scope;
  }
  ASSERT_FALSE(file_scope.empty()) << reg.format();
  EXPECT_GT(reg.get(file_scope, "collective_ops"), 0u);
  EXPECT_GT(reg.get(file_scope, "two_phase_windows"), 0u);
  EXPECT_GT(reg.get(file_scope, "cb_peak_window_bytes"), 0u);
  // Engine + network totals rode along.
  EXPECT_GT(reg.get("proc", "io_bytes_written"), 0u);
  EXPECT_GT(reg.get("net", "bytes"), 0u);
  EXPECT_GT(reg.get_value("proc", "makespan"), 0.0);
}

TEST(ObsEnzo, TracerStatsLandInRegistry) {
  obs::Collector col;
  trace::IoTracer tracer;
  RunSpec spec = tiny_spec(Backend::kMpiIo, &col);
  spec.tracer = &tracer;
  run_enzo_io(spec);
  const obs::MetricsRegistry& reg = col.registry();
  EXPECT_GT(reg.get("trace:write", "requests"), 0u);
  EXPECT_GT(reg.get("trace:read", "bytes"), 0u);
  EXPECT_GT(reg.get("trace", "opens"), 0u);
  EXPECT_GE(reg.get_value("trace:write", "sequential_fraction"), 0.0);
}

// Fig 4-style attribution: the HDF4 backend's dump decomposes into a
// gather (comm) phase and sequential write (io) phases.
TEST(ObsEnzo, Hdf4ReportSplitsGatherFromWrites) {
  obs::Collector col;
  run_enzo_io(tiny_spec(Backend::kHdf4, &col));
  obs::Report r = obs::build_report(col);
  const obs::PhaseStats* gather = r.phase("hdf4.gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_GT(gather->comm_time, 0.0);
  double write_io =
      r.time_sum("hdf4.topgrid_write") + r.time_sum("hdf4.subgrid_write");
  EXPECT_GT(write_io, 0.0);
  const obs::PhaseStats* top = r.phase("hdf4.topgrid_write");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->calls, 1u);  // only rank 0 writes the top grid
  EXPECT_GT(top->io_time, 0.0);
}

// Fig 5/10-style attribution: the HDF5 backend's overheads (metadata sync
// in dataset create/close, hyperslab packing) appear as nested spans.
TEST(ObsEnzo, Hdf5OverheadsAreAttributed) {
  obs::Collector col;
  run_enzo_io(tiny_spec(Backend::kHdf5, &col));
  double sync = 0.0, pack_steps = 0.0, creates = 0.0;
  for (const obs::SpanRecord& s : col.spans()) {
    if (s.name == "hdf5.metadata_sync") sync += s.comm_dt;
    if (s.name == "hdf5.dataset_create") creates += 1.0;
    if (s.name == "hdf5.pack") {
      for (const auto& [name, v] : s.counters) {
        if (name == "pack_steps") pack_steps += static_cast<double>(v);
      }
    }
  }
  EXPECT_GT(sync, 0.0);
  EXPECT_GT(creates, 0.0);
  EXPECT_GT(pack_steps, 0.0);
}

// The PR-8 acceptance property: the blame engine's per-phase attribution
// covers >= 95% of every backend's dump wall time, and each rank's blame
// vector is an exact decomposition of its wall.
TEST_P(ObsBackend, BlameAttributionCoversDumpWall) {
  obs::Collector col;
  col.set_detail(true);
  run_enzo_io(tiny_spec(GetParam(), &col));

  const obs::BlameReport dump = obs::build_blame(col, "dump");
  ASSERT_EQ(dump.nranks, 4);
  EXPECT_GT(dump.wall_time, 0.0);
  EXPECT_GE(dump.attributed_fraction, 0.95)
      << to_string(GetParam()) << ": phases cover only "
      << dump.attributed_fraction * 100.0 << "% of dump wall\n"
      << obs::blame_text(dump);
  for (const obs::RankBlame& rb : dump.ranks) {
    double total = 0.0;
    for (double v : rb.blame) total += v;
    EXPECT_NEAR(total, rb.wall, 1e-9 * std::max(1.0, rb.wall))
        << to_string(GetParam()) << " rank " << rb.rank;
  }
  EXPECT_GE(dump.critical_rank, 0);

  const obs::BlameReport restart = obs::build_blame(col, "restart_read");
  ASSERT_EQ(restart.nranks, 4);
  EXPECT_GE(restart.attributed_fraction, 0.95)
      << to_string(GetParam()) << "\n" << obs::blame_text(restart);
}

// Blame is computed purely from deterministic virtual-time records, so the
// whole report — text and JSON — is byte-identical from run to run.  Across
// perturbation seeds a report holds only while no two ranks' requests reach
// one device at the same virtual instant: the seed orders tied requests, and
// a device's seek model charges for the order.  Reads under contention tie
// routinely — demand reads race the buffer cache (and prefetches), and tied
// arbitration decides hit-vs-miss — so every backend's restart and the HDF5
// dump (metadata read-modify-write) are per-seed quantities.  The dump
// reports of the other three backends hold at seeds 1 and 2 in this
// configuration, and are checked there.  (A configuration whose writes tie,
// such as examples/blame_report's pnetcdf dump, moves by a seek per tie at
// some seeds: a property of the device model, faithfully reported, not
// blame-engine nondeterminism.)
TEST_P(ObsBackend, BlameIsByteIdenticalAcrossSeedsAndReruns) {
  auto blame_of = [&](std::uint64_t seed) {
    obs::Collector col;
    col.set_detail(true);
    RunSpec spec = tiny_spec(GetParam(), &col);
    spec.sched_seed = seed;
    run_enzo_io(spec);
    return std::pair<std::string, std::string>(
        obs::blame_json(obs::build_blame(col, "dump")),
        obs::blame_text(obs::build_blame(col, "restart_read")));
  };
  const auto ref = blame_of(0);
  EXPECT_EQ(blame_of(0), ref)
      << to_string(GetParam()) << ": a second seed-0 run diverged";
  if (GetParam() != Backend::kHdf5) {
    EXPECT_EQ(blame_of(1).first, ref.first)
        << to_string(GetParam()) << ": dump blame diverged under seed 1";
    EXPECT_EQ(blame_of(2).first, ref.first)
        << to_string(GetParam()) << ": dump blame diverged under seed 2";
  }
}

// Satellite 6: detail mode is strictly additive.  The default (detail-off)
// registry export is byte-identical to pre-PR output, and turning detail on
// only adds "hist:" / "timeline:" scopes — every pre-existing scope stays
// byte-for-byte untouched.
TEST(ObsEnzo, DetailExportIsAdditiveAndDefaultUnchanged) {
  obs::Collector off1, off2, on;
  on.set_detail(true);
  run_enzo_io(tiny_spec(Backend::kMpiIo, &off1));
  run_enzo_io(tiny_spec(Backend::kMpiIo, &off2));
  run_enzo_io(tiny_spec(Backend::kMpiIo, &on));

  // Detail-off leaves no trace of the instrumentation.
  EXPECT_EQ(off1.registry().to_json(2), off2.registry().to_json(2));
  EXPECT_TRUE(off1.timeline().empty());
  EXPECT_TRUE(off1.histograms().empty());
  EXPECT_TRUE(off1.waits().empty());
  for (const auto& [scope, _] : off1.registry().scopes()) {
    EXPECT_TRUE(scope.rfind("hist:", 0) != 0 &&
                scope.rfind("timeline:", 0) != 0)
        << "detail scope in a detail-off registry: " << scope;
  }

  // Detail-on recorded the new telemetry...
  EXPECT_FALSE(on.timeline().empty());
  EXPECT_GT(on.histograms().count("pfs.write"), 0u);
  EXPECT_GT(on.histograms().count("net.message"), 0u);
  EXPECT_GT(on.histograms().count("two_phase.window"), 0u);
  EXPECT_FALSE(on.waits().empty());

  // ...and its registry is the detail-off registry plus detail scopes.
  std::size_t extra = 0;
  for (const auto& [scope, data] : on.registry().scopes()) {
    if (scope.rfind("hist:", 0) == 0 || scope.rfind("timeline:", 0) == 0) {
      ++extra;
      continue;
    }
    const auto& off_scopes = off1.registry().scopes();
    auto it = off_scopes.find(scope);
    ASSERT_NE(it, off_scopes.end()) << "unexpected new scope: " << scope;
    EXPECT_TRUE(it->second.counters == data.counters &&
                it->second.values == data.values)
        << "detail mode perturbed scope " << scope;
  }
  EXPECT_GT(extra, 0u);
  EXPECT_EQ(on.registry().scopes().size() - extra,
            off1.registry().scopes().size());
}

TEST(ObsEnzo, TraceAndReportAreByteIdenticalAcrossRuns) {
  obs::Collector a, b;
  run_enzo_io(tiny_spec(Backend::kMpiIo, &a));
  run_enzo_io(tiny_spec(Backend::kMpiIo, &b));
  EXPECT_EQ(obs::chrome_trace_json(a), obs::chrome_trace_json(b));
  EXPECT_EQ(obs::report_text(obs::build_report(a)),
            obs::report_text(obs::build_report(b)));
  EXPECT_EQ(a.registry().to_json(2), b.registry().to_json(2));
}

}  // namespace
}  // namespace paramrio::bench
