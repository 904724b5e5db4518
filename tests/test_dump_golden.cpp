// Golden pins for the ENZO dump schema: the bytes each backend writes, the
// virtual time rank 0 spends in write_dump / read_restart / read_initial,
// the serialized query index and the inspect_dump summary, for two
// simulation seeds on an 8-rank Chiba City PVFS-over-Ethernet testbed.
//
// The pins are exact (times compare as IEEE-754 bit patterns).  A change to
// any of them is a change to the on-disk format, to some rank's sequence of
// I/O and MPI calls, or to the layout decoder — never a refactoring.  The
// schedule perturbation seed is cleared for these runs: schedule
// independence is the differentials' job, identity across commits is this
// test's.  It is also the only guard on read_initial's virtual time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "enzo/backends.hpp"
#include "enzo/dump_inspect.hpp"
#include "enzo/simulation.hpp"
#include "golden_util.hpp"
#include "platform/machine.hpp"
#include "query/index.hpp"

namespace paramrio {
namespace {

enum class Kind { kHdf4, kMpiIo, kHdf5, kPnetcdf };

const char* to_cstr(Kind k) {
  switch (k) {
    case Kind::kHdf4:
      return "hdf4";
    case Kind::kMpiIo:
      return "mpiio";
    case Kind::kHdf5:
      return "hdf5";
    case Kind::kPnetcdf:
      return "pnetcdf";
  }
  return "?";
}

std::unique_ptr<enzo::IoBackend> make_backend(Kind k, pfs::FileSystem& fs) {
  switch (k) {
    case Kind::kHdf4:
      return std::make_unique<enzo::Hdf4SerialBackend>(fs);
    case Kind::kMpiIo:
      return std::make_unique<enzo::MpiIoBackend>(fs);
    case Kind::kHdf5:
      return std::make_unique<enzo::Hdf5ParallelBackend>(fs);
    case Kind::kPnetcdf:
      return std::make_unique<enzo::PnetcdfBackend>(fs);
  }
  throw LogicError("bad backend kind");
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct Pins {
  std::uint64_t store_fnv = 0;  ///< (name, bytes) of every object, by name
  std::uint64_t dump_bits = 0;  ///< rank 0's virtual seconds, as bits
  std::uint64_t restart_bits = 0;
  std::uint64_t initial_bits = 0;
  std::uint64_t index_fnv = 0;  ///< query::build_index(...).serialize()
  std::uint64_t files = 0;      ///< inspect_dump summary
  std::uint64_t total_bytes = 0;
  std::uint64_t datasets = 0;
  std::uint64_t n_particles = 0;
  std::uint64_t grids = 0;

  bool operator==(const Pins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pins& p) {
  return os << std::hex << "{0x" << p.store_fnv << "ULL, 0x" << p.dump_bits
            << "ULL, 0x" << p.restart_bits << "ULL, 0x" << p.initial_bits
            << "ULL, 0x" << p.index_fnv << "ULL, " << std::dec << p.files
            << ", " << p.total_bytes << ", " << p.datasets << ", "
            << p.n_particles << ", " << p.grids << "}";
}

Pins run_pins(Kind kind, std::uint64_t seed) {
  testutil::ScopedNoSchedSeed no_seed;
  enzo::SimulationConfig config;
  config.root_dims = {32, 32, 32};
  config.particles_per_cell = 0.25;
  config.seed = seed;

  constexpr int kRanks = 8;
  constexpr const char* kBase = "golden";
  platform::Testbed tb(platform::chiba_pvfs_ethernet(), kRanks);
  Pins pins;
  tb.runtime().run([&](mpi::Comm& c) {
    auto backend = make_backend(kind, tb.fs());
    enzo::EnzoSimulation sim(c, config);
    sim.initialize_from_universe();
    sim.evolve_cycle();
    auto timed = [&](auto&& call) {
      c.barrier();
      const double t0 = c.proc().now();
      call();
      const double dt = c.proc().now() - t0;
      c.barrier();
      return testutil::bits_of(dt);
    };
    const std::uint64_t dump = timed(
        [&] { backend->write_dump(c, sim.state(), kBase); });
    enzo::EnzoSimulation restarted(c, config);
    const std::uint64_t restart = timed(
        [&] { backend->read_restart(c, restarted.state(), kBase); });
    enzo::EnzoSimulation initial(c, config);
    const std::uint64_t init = timed(
        [&] { backend->read_initial(c, initial.state(), kBase); });
    if (c.rank() != 0) return;
    pins.dump_bits = dump;
    pins.restart_bits = restart;
    pins.initial_bits = init;
    const stor::ObjectStore& store = tb.fs().store();
    std::uint64_t h = kFnvBasis;
    for (const std::string& name : store.list()) {
      std::vector<std::byte> bytes(store.size(name));
      store.read_at(name, 0, bytes);
      h = fnv1a(name.data(), name.size(), h);
      h = fnv1a(bytes.data(), bytes.size(), h);
    }
    pins.store_fnv = h;
    const auto blob = query::build_index(tb.fs(), kBase, 0).serialize();
    pins.index_fnv = fnv1a(blob.data(), blob.size());
    const enzo::DumpSummary s = enzo::inspect_dump(tb.fs(), kBase);
    pins.files = s.files;
    pins.total_bytes = s.total_bytes;
    pins.datasets = s.datasets;
    pins.n_particles = s.meta.n_particles;
    pins.grids = s.meta.hierarchy.grid_count();
  });
  return pins;
}

struct GoldenCase {
  Kind kind;
  std::uint64_t seed;
  Pins want;
};

// Recorded before the dump readers were unified; see the file comment.
const GoldenCase kGolden[] = {
    {Kind::kHdf4, 0,
     {0x1ddccfac934425a7ULL, 0x3fe785394920ce8aULL, 0x400396fe33a0146bULL,
      0x400dfd40cb5e7694ULL, 0xab6de07e48fcf7efULL,
      40, 2491694, 330, 8192, 40}},
    {Kind::kHdf4, 1,
     {0x55077bf822f3c7a1ULL, 0x3fe7f66f1f5de95fULL, 0x40021e58ecaf7cf3ULL,
      0x400ee7d22330b6deULL, 0xb3adc2a0ae2ba304ULL,
      41, 2594164, 338, 8192, 41}},
    {Kind::kMpiIo, 0,
     {0x1841b8cb22896de2ULL, 0x3fe54ac358fe0b06ULL, 0x3ff4189d0553bee8ULL,
      0x401f748da414ebe0ULL, 0xba541e17e925e049ULL,
      1, 2471744, 330, 8192, 40}},
    {Kind::kMpiIo, 1,
     {0x5f3e3b3761c808adULL, 0x3fe5828dcbe8ac04ULL, 0x3ff3f584ca437397ULL,
      0x401e1d70ddcb5e5fULL, 0xde113e56b16eb9fdULL,
      1, 2573728, 338, 8192, 41}},
    {Kind::kHdf5, 0,
     {0xb16886e9e79ea56fULL, 0x40104a93d42bd40eULL, 0x40075fc2f27ea300ULL,
      0x402328b30a0d5cb7ULL, 0x6ee8d30413e34b11ULL,
      1, 2500270, 330, 8192, 40}},
    {Kind::kHdf5, 1,
     {0x2bf41c1833bf68e6ULL, 0x4010babfbc8f927dULL, 0x400224041198d6eaULL,
      0x40213a0daff74b86ULL, 0x869e5d323015298cULL,
      1, 2602948, 338, 8192, 41}},
    {Kind::kPnetcdf, 0,
     {0x54262e78a0714c25ULL, 0x3fe6861e194f186fULL, 0x3ff2337f8672c120ULL,
      0x401efd41f1d3280aULL, 0x945119601f7d31dfULL,
      1, 2496512, 330, 8192, 40}},
    {Kind::kPnetcdf, 1,
     {0x0b0b7b71d7a7e1eaULL, 0x3fe4760258e9826eULL, 0x3ff50ac7fa99ea6dULL,
      0x401d84387b32d86cULL, 0x27469874629adefaULL,
      1, 2598400, 338, 8192, 41}},
};

void PrintTo(const GoldenCase& g, std::ostream* os) {
  *os << to_cstr(g.kind) << " seed " << g.seed;
}

class DumpGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DumpGolden, BytesTimesIndexAndSummaryArePinned) {
  const GoldenCase& g = GetParam();
  EXPECT_EQ(run_pins(g.kind, g.seed), g.want)
      << to_cstr(g.kind) << " seed " << g.seed;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DumpGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(to_cstr(info.param.kind)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace paramrio
