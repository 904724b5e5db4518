// HDF5-style dataspaces and hyperslab selections.
//
// A Dataspace is an n-dimensional extent plus an optional hyperslab
// selection (start/stride/count/block per dimension, exactly HDF5's model).
// Selected elements are enumerated as contiguous runs in row-major order
// (dimension 0 slowest).  Enumeration is implemented as a per-dimension
// recursion — the same structure the paper blames for HDF5's slow hyperslab
// packing — and reports how many recursive steps it took so the parallel
// driver can charge virtual CPU time per step.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/error.hpp"

namespace paramrio::hdf5 {

struct HyperslabDim {
  std::uint64_t start = 0;
  std::uint64_t stride = 1;
  std::uint64_t count = 1;
  std::uint64_t block = 1;
};

class Dataspace {
 public:
  /// Simple (non-scalar) dataspace with the given dimensions; the selection
  /// defaults to all elements.
  explicit Dataspace(std::vector<std::uint64_t> dims);

  /// Select a hyperslab; every dimension must be given.  Replaces any
  /// previous selection (HDF5's H5S_SELECT_SET).
  void select_hyperslab(const std::vector<HyperslabDim>& slab);

  /// Convenience: contiguous block selection (stride == block semantics of
  /// start/count only), HDF5's most common call shape.
  void select_block(const std::vector<std::uint64_t>& start,
                    const std::vector<std::uint64_t>& count);

  /// Select no elements (HDF5's H5Sselect_none): zero-size participation in
  /// collective transfers.
  void select_none();

  const std::vector<std::uint64_t>& dims() const { return dims_; }
  std::uint64_t rank() const { return dims_.size(); }
  std::uint64_t total_elements() const;
  std::uint64_t selected_elements() const;
  bool is_all_selected() const { return !none_ && !slab_.has_value(); }

  /// A contiguous run of selected elements in linearised row-major element
  /// space.
  struct Run {
    std::uint64_t element_offset = 0;
    std::uint64_t element_count = 0;
  };

  /// Enumerate selected runs in row-major order, merging adjacent runs.
  /// Returns the number of recursive iterator steps performed (the cost
  /// driver for hyperslab packing).
  std::uint64_t for_each_run(const std::function<void(const Run&)>& fn) const;

  /// Materialise the run list (convenience over for_each_run).
  std::vector<Run> runs() const;

 private:
  std::uint64_t recurse(std::size_t dim, std::uint64_t base,
                        const std::function<void(const Run&)>& fn,
                        Run& pending) const;

  std::vector<std::uint64_t> dims_;
  std::vector<std::uint64_t> stride_elems_;  // row-major strides in elements
  std::optional<std::vector<HyperslabDim>> slab_;
  bool none_ = false;
};

}  // namespace paramrio::hdf5
