// Critical-path blame analysis of a checkpoint dump: attach a detail-mode
// obs::Collector, run a tiny dump + restart on the simulated Origin2000 for
// a chosen ENZO backend, and print the blame report — which rank was the
// critical path and what it was waiting on (recv waits, server queues,
// token transfers, retry backoff, deferred settles).
//
//   $ ./examples/blame_report [hdf4|mpiio|hdf5|pnetcdf] [--json out.json]
//                             [--seed N]
//
// The JSON document follows the schema CI's obs-blame job validates.  Both
// reports are byte-identical from run to run.  Across sched seeds a report
// holds only while no two ranks' requests reach one device at the same
// virtual instant, since the seed orders tied requests and the disk's seek
// model charges for the order.  Restart reads race the cache, so restart
// blame is per-seed; so is the pnetcdf dump at this configuration, whose
// first two field windows tie (docs/OBSERVABILITY.md has the numbers).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "obs/critical_path.hpp"

using namespace paramrio;

int main(int argc, char** argv) {
  bench::Backend backend = bench::Backend::kMpiIo;
  std::string json_path;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "hdf4") {
      backend = bench::Backend::kHdf4;
    } else if (arg == "mpiio") {
      backend = bench::Backend::kMpiIo;
    } else if (arg == "hdf5") {
      backend = bench::Backend::kHdf5;
    } else if (arg == "pnetcdf") {
      backend = bench::Backend::kPnetcdf;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: blame_report [hdf4|mpiio|hdf5|pnetcdf] "
                   "[--json out.json] [--seed N]\n");
      return 2;
    }
  }

  obs::Collector collector;
  collector.set_detail(true);

  bench::RunSpec spec;
  spec.machine = platform::origin2000_xfs();
  spec.config.root_dims = {16, 16, 16};
  spec.config.particles_per_cell = 0.25;
  spec.nprocs = 4;
  spec.backend = backend;
  spec.collector = &collector;
  spec.sched_seed = seed;

  bench::IoResult r = bench::run_enzo_io(spec);
  std::printf("backend %s: write %.3f s, read %.3f s (virtual)\n\n",
              bench::to_string(backend).c_str(), r.write_time, r.read_time);

  const obs::BlameReport dump = obs::build_blame(collector, "dump");
  std::printf("%s\n", obs::blame_text(dump).c_str());
  const obs::BlameReport restart = obs::build_blame(collector, "restart_read");
  std::printf("%s\n", obs::blame_text(restart).c_str());

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    obs::write_blame_json(dump, os);
    if (!os.good()) {
      std::fprintf(stderr, "failed writing %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote blame JSON to %s\n", json_path.c_str());
  }
  return 0;
}
