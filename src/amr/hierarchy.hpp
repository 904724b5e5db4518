// The AMR grid hierarchy: a tree of grid descriptors, replicated on every
// processor (as in ENZO — "the hierarchy data structure is maintained on all
// processors and contains grids metadata; the grids themselves are
// distributed among processors").
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "amr/grid.hpp"
#include "base/byte_io.hpp"

namespace paramrio::amr {

class Hierarchy {
 public:
  Hierarchy() = default;

  /// Install the root grid (id 0, level 0, covering the whole domain).
  void set_root(const std::array<std::uint64_t, 3>& dims);

  /// Add a grid; the parent must already exist and the child must nest
  /// geometrically inside it at level parent.level + 1.
  std::uint64_t add_grid(GridDescriptor desc);

  /// Remove all grids below the root (a fresh refinement pass rebuilds).
  void clear_subgrids();

  const GridDescriptor& root() const { return grid(0); }
  const GridDescriptor& grid(std::uint64_t id) const;
  GridDescriptor& grid_mut(std::uint64_t id);
  bool has(std::uint64_t id) const { return find(id) != grids_.size(); }

  const std::vector<std::uint64_t>& children(std::uint64_t id) const;

  /// All grids in id order (root first — ids are assigned monotonically).
  const std::vector<GridDescriptor>& grids() const { return grids_; }
  std::size_t grid_count() const { return grids_.size(); }

  /// Grids at one refinement level, in id order.
  std::vector<std::uint64_t> level_grids(int level) const;
  int max_level() const;

  std::uint64_t total_cells() const;

  /// Check structural invariants: the root exists and covers the domain,
  /// every child nests in its parent at level+1, grids at the same level do
  /// not overlap, and levels are contiguous from 0.  Throws LogicError with
  /// a description of the first violation.
  void validate() const;

  /// Wire format, for replication checks and checkpoint metadata.
  std::vector<std::byte> serialize() const;
  static Hierarchy deserialize(std::span<const std::byte> data);

  friend bool operator==(const Hierarchy& a, const Hierarchy& b) {
    return a.grids_ == b.grids_;
  }

 private:
  /// Position of grid `id` in grids_, or grids_.size() if there is none.
  std::size_t find(std::uint64_t id) const;

  std::vector<GridDescriptor> grids_;  ///< in ascending id order
  std::map<std::uint64_t, std::vector<std::uint64_t>> children_;
  std::uint64_t next_id_ = 0;
};

}  // namespace paramrio::amr
