// The one reader per dump format.  DumpDecoder opens a dump written by any
// of the four backends, validates its structure and flattens the format's
// own metadata (HDF4 SDS records, the HDF5 record chain, the PnetCDF
// header, the MPI-IO closed-form layout) into per-(grid, field) and
// per-particle-array extents: first the dump's head, then one step per
// subgrid.  decode_dump is the head plus every step; inspect_dump
// summarises it (the job a standalone `h5dump`/`hdp`-style tool does for
// the real formats).  query::build_index adds its particle-ID ladder to
// decode_dump, and the query service steps a head-only index on demand.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "enzo/dump_common.hpp"
#include "hdf5/h5_file.hpp"
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

/// Decodes one dump in steps.  The head is what every request needs: the
/// format, the attributes (the DumpMeta under "metadata"), the root grid's
/// field extents and the particle extents.  Each subgrid then takes one
/// step, which adds its field extents:
///   * HDF4: the scan of the subgrid's own file;
///   * HDF5: the record-chain walk continued from where the last step (or
///     the head) stopped up to the grid's records.  The chain is in
///     creation order (metadata, root fields, particles, then subgrids in
///     hierarchy order), and a step adds every grid it walks past;
///   * MPI-IO and PnetCDF: one header holds the whole layout, so the head
///     already has every grid and no step exists.
/// A grid is decoded once it is in DumpLayout::fields; steps insert whole
/// grids and never touch one that is already there.
class DumpDecoder {
 public:
  /// A decoder for the dump under `base`, stored in `format`.  Given a head
  /// decoded elsewhere (a copy loaded from a catalog), an HDF5 step first
  /// walks the head's records again: the head carries no chain position.
  DumpDecoder(std::string base, DumpFormat format);

  /// Decode the head of the dump into `l`.  Must run inside a simulation:
  /// the reads are timed like any other access.  Throws IoError when no
  /// dump exists under the base name, FormatError when the head is
  /// malformed or an HDF4 subgrid file is missing (an untimed existence
  /// check over the hierarchy).
  void decode_head(pfs::FileSystem& fs, DumpLayout& l);

  /// The file the step for subgrid `id` reads.
  std::string step_path(std::uint64_t id) const;

  /// Decode subgrid `id` into `l.fields`, reading step_path(id) (`size`
  /// bytes long) through `read`: exactly the reads decode_dump issues for
  /// that file or record range.  Returns the grids it added.  Throws
  /// FormatError naming the path and the offset of a malformed record, and
  /// then adds no grid (an HDF5 walk keeps the records it got past).
  std::vector<std::uint64_t> step(DumpLayout& l, std::uint64_t id,
                                  std::uint64_t size,
                                  const pfs::ReadAt& read);

 private:
  /// HDF5: walk the chain (`size` bytes long) until it has passed the
  /// dataset, or with `attribute` the attribute, called `name`.
  void walk_to(const std::string& name, bool attribute, std::uint64_t size,
               const pfs::ReadAt& read);

  std::string base_;
  DumpFormat format_;
  std::optional<hdf5::ChainWalk> walk_;  ///< HDF5: the walk so far
  std::map<std::string, hdf5::DatasetInfo> walked_;  ///< HDF5: by name
  std::map<std::string, std::vector<std::byte>> walked_attributes_;
};

/// Decode the whole dump under `base`: the head, then every subgrid's step
/// (one open per step file, so one HDF5 walk covers every subgrid).  Same
/// contract as DumpDecoder::decode_head, plus the steps' FormatErrors.
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
