#include "enzo/checkpoint.hpp"

#include <vector>

#include "base/byte_io.hpp"
#include "base/error.hpp"
#include "mpi/comm.hpp"

namespace paramrio::enzo {

namespace {

// "CKPT-OK!" — eight bytes naming the marker format.
constexpr std::uint64_t kMarkerMagic = 0x434b50542d4f4b21ULL;

}  // namespace

std::string generation_base(const std::string& series, std::uint64_t gen) {
  return series + ".g" + std::to_string(gen);
}

std::string marker_path(const std::string& series, std::uint64_t gen) {
  return generation_base(series, gen) + ".ok";
}

bool is_commit_marker(std::span<const std::byte> bytes, std::uint64_t gen) {
  if (bytes.size() != kCommitMarkerBytes) return false;
  ByteReader r(bytes);
  return r.u64() == kMarkerMagic && r.u64() == gen;
}

void CheckpointSeries::dump(mpi::Comm& comm, const SimulationState& state,
                            std::uint64_t gen) {
  // At most one async drain in flight: settle the previous generation's
  // before this dump's writes land on the staging tier.
  if (staged_ != nullptr && drain_policy_ == stage::DrainPolicy::kAsync) {
    staged_->drain_settle();
    comm.barrier();
  }
  backend_.write_dump(comm, state, gen_base(gen));
  // Every rank's data must be in the store before the marker can claim the
  // generation is complete.
  comm.barrier();
  if (staged_ != nullptr && drain_policy_ == stage::DrainPolicy::kSync) {
    // Sync: the marker additionally certifies destination durability, so
    // every rank drains its staged bytes before rank 0 publishes.
    staged_->drain_mine(stage::DrainPolicy::kSync);
    comm.barrier();
  }
  if (comm.rank() == 0) {
    ByteWriter w;
    w.u64(kMarkerMagic);
    w.u64(gen);
    auto bytes = w.take();
    int fd = fs_.open(marker_path(gen), pfs::OpenMode::kCreate);
    std::uint64_t done = 0;
    while (done < bytes.size()) {
      done += fs_.write_at(
          fd, done, std::span<const std::byte>(bytes).subspan(done));
    }
    fs_.close(fd);
  }
  // No rank may report the dump done before the marker is published.
  comm.barrier();
  if (staged_ != nullptr && drain_policy_ == stage::DrainPolicy::kAsync) {
    // Async: kick the drain off on the shadow clock after the generation is
    // committed; the work overlaps whatever compute follows.
    staged_->drain_mine(stage::DrainPolicy::kAsync);
  }
}

bool CheckpointSeries::committed(std::uint64_t gen) const {
  const auto& store = fs_.store();
  const std::string marker = marker_path(gen);
  if (!store.exists(marker) || store.size(marker) != kCommitMarkerBytes) {
    return false;
  }
  std::vector<std::byte> raw(kCommitMarkerBytes);
  store.read_at(marker, 0, raw);
  return is_commit_marker(raw, gen);
}

bool CheckpointSeries::torn(std::uint64_t gen) const {
  if (committed(gen)) return false;
  const std::string marker = marker_path(gen);
  const std::string prefix = gen_base(gen) + ".";
  for (const auto& name : fs_.store().list()) {
    if (name == marker) continue;
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

std::optional<std::uint64_t> CheckpointSeries::latest_committed(
    std::uint64_t max_gen) const {
  for (std::uint64_t gen = max_gen;; --gen) {
    if (committed(gen)) return gen;
    if (gen == 0) return std::nullopt;
  }
}

std::uint64_t CheckpointSeries::restore_latest(mpi::Comm& comm,
                                               SimulationState& state,
                                               std::uint64_t max_gen) {
  auto gen = latest_committed(max_gen);
  if (!gen) {
    throw IoError("CheckpointSeries: no committed generation <= " +
                  std::to_string(max_gen) + " under " + base_);
  }
  backend_.read_restart(comm, state, gen_base(*gen));
  return *gen;
}

}  // namespace paramrio::enzo
