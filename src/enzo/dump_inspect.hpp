// The one reader per dump format.  decode_dump opens a dump written by any
// of the four backends, validates its structure and flattens the format's
// own metadata (HDF4 SDS records, the HDF5 record chain, the PnetCDF
// header, the MPI-IO closed-form layout) into per-(grid, field) and
// per-particle-array extents.  inspect_dump summarises the decode (the job
// a standalone `h5dump`/`hdp`-style tool does for the real formats), and
// query::build_index adds its particle-ID ladder to it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "enzo/dump_common.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::enzo {

enum class DumpFormat { kUnknown, kHdf4, kMpiIo, kHdf5, kPnetcdf };

std::string to_string(DumpFormat f);

/// Detect the format of the dump stored under `base` on `fs`.
DumpFormat detect_dump_format(pfs::FileSystem& fs, const std::string& base);

/// Where one field of one grid lives: a contiguous row-major (z, y, x)
/// float32 array at [offset, offset + bytes) of `path`.
struct FieldExtent {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 3> dims{};  ///< (z, y, x) cells
};

/// Where one particle array lives (all backends store each array
/// contiguously, sorted by particle ID).
struct ParticleExtent {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t elem_size = 0;
};

/// A decoded dump: its metadata, attributes and extents.
struct DumpLayout {
  DumpFormat format = DumpFormat::kUnknown;
  DumpMeta meta;

  /// grid id -> field name -> extent (every grid has all baryon fields).
  std::map<std::uint64_t, std::map<std::string, FieldExtent>> fields;

  /// One per kParticleArrays entry; empty when the dump has no particles.
  std::vector<ParticleExtent> particles;

  /// The dump's attributes (the serialized DumpMeta under "metadata").
  std::map<std::string, std::vector<std::byte>> attributes;
};

/// Decode the dump under `base`.  Must run inside a simulation: the
/// metadata reads are timed like any other access.  Throws IoError when no
/// dump exists under `base`, FormatError when it is malformed (including a
/// missing HDF4 subgrid file).
DumpLayout decode_dump(pfs::FileSystem& fs, const std::string& base);

struct DumpSummary {
  DumpFormat format = DumpFormat::kUnknown;
  DumpMeta meta;
  std::uint64_t files = 0;        ///< physical files making up the dump
  std::uint64_t total_bytes = 0;  ///< bytes across those files
  std::uint64_t datasets = 0;     ///< named datasets (grid fields, particles)
  int max_level = 0;
  std::uint64_t refined_cells = 0;
};

/// Decode and summarise a dump (same contract as decode_dump).
DumpSummary inspect_dump(pfs::FileSystem& fs, const std::string& base);

/// Human-readable rendering of a summary.
std::string format_summary(const DumpSummary& s, const std::string& base);

}  // namespace paramrio::enzo
