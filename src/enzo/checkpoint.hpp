// Crash-consistent checkpoint series on top of any IoBackend.
//
// A dump that dies halfway — a crashed I/O node, a killed job — must never
// masquerade as a restartable checkpoint.  ENZO's own defence was the dump
// *series*: you restart from the last dump that finished.  CheckpointSeries
// makes that contract explicit and checkable:
//
//   * generation `g` writes its files under "<base>.g<g>" (every backend
//     already namespaces its files under the dump base), so a torn dump can
//     never overwrite the previous good one;
//   * after the backend's collective write_dump returns *and* all ranks have
//     synchronised, rank 0 writes a tiny commit marker "<base>.g<g>.ok"
//     naming the generation and backend — the atomic publication point;
//   * a dump with data files but no valid marker is *torn*: restore_latest
//     skips it and falls back to the newest committed generation.
//
// The marker is written through the (timed, fault-injected, observed) file
// system, so a crash while committing simply leaves the dump uncommitted —
// there is no window in which a half-written dump looks valid.  Torn dumps
// are additionally detectable by the check analyzer (their write trace shows
// holes / missing files) and by decode_dump's format validation
// (dump_inspect.hpp), which inspect_dump and the query index share.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "enzo/io_backend.hpp"
#include "pfs/filesystem.hpp"
#include "stage/staged_fs.hpp"

namespace paramrio::enzo {

/// "<series>.g<gen>": the dump base of generation `gen`.
std::string generation_base(const std::string& series, std::uint64_t gen);

/// "<series>.g<gen>.ok": generation `gen`'s commit marker.
std::string marker_path(const std::string& series, std::uint64_t gen);

/// A commit marker is exactly this long: the "CKPT-OK!" magic, then the
/// generation number.
inline constexpr std::uint64_t kCommitMarkerBytes = 16;

/// True when `bytes` is a valid commit marker for generation `gen`.
bool is_commit_marker(std::span<const std::byte> bytes, std::uint64_t gen);

class CheckpointSeries {
 public:
  /// Dumps are written through `backend` onto `fs`; generation files live
  /// under "<base>.g<gen>".
  CheckpointSeries(IoBackend& backend, pfs::FileSystem& fs, std::string base)
      : backend_(backend), fs_(fs), base_(std::move(base)) {}

  std::string gen_base(std::uint64_t gen) const {
    return generation_base(base_, gen);
  }
  std::string marker_path(std::uint64_t gen) const {
    return enzo::marker_path(base_, gen);
  }

  /// Route dumps through a burst-buffer staging tier (`staged` must be the
  /// same object the series writes through).  The drain-policy hint shapes
  /// when staged bytes reach the destination relative to the commit marker:
  ///   kSync  — drain before the marker; the marker certifies the data files
  ///            are destination-durable (the marker itself stays staged and
  ///            is recovered by log replay).
  ///   kAsync — drain after the final barrier on the shadow clock; the next
  ///            dump settles the previous drain before writing.
  ///   kLazy  — never drained by the series; recovery replays the staging
  ///            tier.  Either way a committed generation is always
  ///            recoverable: the staging log plus drained bytes reconstruct
  ///            every committed file.
  void set_staging(stage::StagedFs& staged, stage::DrainPolicy policy) {
    staged_ = &staged;
    drain_policy_ = policy;
  }

  /// Collective: write generation `gen` and, once every rank's data is
  /// durably in the store, publish the commit marker.
  void dump(mpi::Comm& comm, const SimulationState& state,
            std::uint64_t gen);

  /// True when generation `gen` carries a valid commit marker.  Untimed
  /// metadata probe (usable outside the simulation, e.g. from tests).
  bool committed(std::uint64_t gen) const;

  /// True when generation `gen` left data files behind but no valid marker
  /// — the signature of a dump interrupted mid-write.
  bool torn(std::uint64_t gen) const;

  /// Newest committed generation <= `max_gen`, if any.
  std::optional<std::uint64_t> latest_committed(std::uint64_t max_gen) const;

  /// Collective: restore the newest committed generation <= `max_gen` into
  /// `state` and return it.  Torn generations are skipped — an interrupted
  /// dump can cost progress, never correctness.  Throws IoError when no
  /// committed generation exists.
  std::uint64_t restore_latest(mpi::Comm& comm, SimulationState& state,
                               std::uint64_t max_gen);

 private:
  IoBackend& backend_;
  pfs::FileSystem& fs_;
  std::string base_;
  stage::StagedFs* staged_ = nullptr;
  stage::DrainPolicy drain_policy_ = stage::DrainPolicy::kLazy;
};

}  // namespace paramrio::enzo
