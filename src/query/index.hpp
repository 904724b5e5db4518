// query::GenerationIndex — the per-generation extent index behind the query
// service (ROADMAP item 3; the h5db direction).
//
// A committed dump is, to its writers, a stream: every backend knows where
// its own bytes went because it computed the layout on the way in.  A
// *reader* that wants one field of one subgrid, or particles 1000..2000,
// has no such luck — the paper's formats bury offsets in format-specific
// metadata (HDF4 SDS records, the HDF5 record chain, the PNC header, the
// MPI-IO closed-form layout).  The index is enzo::DumpDecoder's layout —
// the one reader per format, which inspect_dump also summarises — plus:
//
//   * a strided sample ladder over the (sorted) particle_id array and the
//     ID range, so an ID range query binary-searches a small window
//     instead of scanning.
//
// An index holds the dump's head (attributes, root-grid fields, particles,
// ladder) plus the subgrids decoded so far: a grid listed in
// meta.hierarchy but absent from `fields` is not decoded yet.  build_index
// decodes every grid; the query service builds the head alone and decodes
// a subgrid when a request first touches it.
//
// The index serializes to a compact blob that `mdms::Catalog` persists
// (versioned, tombstone-aware), so a fresh process can serve a series
// without re-inspecting every generation; a loaded head-only index decodes
// its subgrids on demand the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "enzo/dump_inspect.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::query {

using FieldExtent = enzo::FieldExtent;
using ParticleExtent = enzo::ParticleExtent;

/// One rung of the particle-ID sample ladder: the ID at array index
/// `index`.  Rungs are ascending in both fields (IDs are sorted).
struct IdSample {
  std::uint64_t id = 0;
  std::uint64_t index = 0;
};

/// Stride (in particles) between ID samples; the ID window a range query
/// must actually read is at most two strides.
inline constexpr std::uint64_t kIdSampleStride = 4096;

/// A decoded generation: the layout (format, meta, field and particle
/// extents, attributes) plus the particle-ID ladder.
struct GenerationIndex : enzo::DumpLayout {
  std::uint64_t gen = 0;

  std::uint64_t id_min = 0;
  std::uint64_t id_max = 0;
  std::vector<IdSample> id_samples;  ///< first, every kIdSampleStride, last

  const FieldExtent& field(std::uint64_t grid_id,
                           const std::string& name) const;

  std::vector<std::byte> serialize() const;
  static GenerationIndex deserialize(std::span<const std::byte> data);
};

/// Build the index for the dump under `gen_base` (a CheckpointSeries
/// generation base, e.g. "series.g3"): enzo::decode_dump, then the
/// particle-ID ladder.  Must run inside a simulation: all metadata and
/// particle-ID reads are timed like any other access.  Throws
/// FormatError/IoError on a missing or malformed dump.
GenerationIndex build_index(pfs::FileSystem& fs, const std::string& gen_base,
                            std::uint64_t gen);

/// Build the index of a dump's head: decoder.decode_head, then the
/// particle-ID ladder.  An HDF4 or HDF5 dump's subgrids are left out;
/// `decoder` adds them one step at a time (query::Service does, when a
/// request first touches one).  Same contract as build_index.
GenerationIndex build_head_index(pfs::FileSystem& fs,
                                 enzo::DumpDecoder& decoder,
                                 std::uint64_t gen);

}  // namespace paramrio::query
