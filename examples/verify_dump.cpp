// Run an ENZO checkpoint dump + restart under the MPI semantics verifier
// and render the resulting verify::Report for every I/O backend.
//
//   $ ./examples/verify_dump [seed]        # verify all four backends
//   $ ./examples/verify_dump --plant       # plant a defect, show the report
//
// `seed` feeds the engine's schedule perturbation (sim::Engine::Options::
// perturb_seed): 0 is the classic lowest-rank order, any nonzero value
// executes the same program under a different — equally legal — interleaving.
// A correct program must verify clean under every seed; that is exactly what
// the schedule-perturbation differential tests in tests/test_verify.cpp
// assert.  The --plant mode shows what a *dirty* report looks like: a rank
// that issues a nonblocking write and closes the file without waiting.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"
#include "mpi/io/file.hpp"

using namespace paramrio;

namespace {

int verify_backends(std::uint64_t seed) {
  const bench::Backend backends[] = {
      bench::Backend::kHdf4, bench::Backend::kMpiIo, bench::Backend::kHdf5,
      bench::Backend::kPnetcdf};

  std::printf("verifying ENZO dump + restart, 4 ranks, seed %llu\n\n",
              static_cast<unsigned long long>(seed));
  int dirty = 0;
  for (bench::Backend b : backends) {
    verify::Verifier verifier;

    bench::RunSpec spec;
    spec.machine = platform::origin2000_xfs();
    spec.config = enzo::SimulationConfig::for_size(enzo::ProblemSize::kAmr64);
    spec.nprocs = 4;
    spec.backend = b;
    spec.verifier = &verifier;
    spec.sched_seed = seed;
    bench::run_enzo_io(spec);

    const verify::Report& report = verifier.report();
    std::printf("%-8s %s\n", bench::to_string(b).c_str(),
                report.clean() && report.lints() == 0
                    ? "clean"
                    : report.format().c_str());
    if (!report.clean()) ++dirty;
  }
  return dirty;
}

int plant_defect() {
  std::printf("planting a defect: iwrite_at with no wait before close\n\n");
  verify::Verifier verifier;
  {
    verify::Attach attach(verifier);
    platform::Testbed tb(platform::origin2000_xfs(), 2);
    tb.runtime().run([&](mpi::Comm& c) {
      mpi::io::Hints hints;
      hints.overlap = true;  // nonblocking ops actually stay in flight
      mpi::io::File f(c, tb.fs(), "planted.dat", pfs::OpenMode::kCreate,
                      hints);
      mpi::Bytes payload(4096, std::byte{0x42});
      mpi::io::Request r =
          f.iwrite_at(static_cast<std::uint64_t>(c.rank()) * payload.size(),
                      payload);
      if (c.rank() == 0) f.wait(r);  // rank 1 "forgets" its wait
      f.close();
    });
  }
  std::printf("%s\n", verifier.report().format().c_str());
  return verifier.report().clean() ? 1 : 0;  // a clean report means we failed
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--plant") return plant_defect();
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 0;
  return verify_backends(seed);
}
