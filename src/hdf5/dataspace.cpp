#include "hdf5/dataspace.hpp"

#include <optional>

namespace paramrio::hdf5 {

Dataspace::Dataspace(std::vector<std::uint64_t> dims)
    : dims_(std::move(dims)) {
  PARAMRIO_REQUIRE(!dims_.empty(), "Dataspace: need at least one dimension");
  for (auto d : dims_) {
    PARAMRIO_REQUIRE(d > 0, "Dataspace: zero-length dimension");
  }
  stride_elems_.assign(dims_.size(), 1);
  for (std::size_t d = dims_.size() - 1; d > 0; --d) {
    stride_elems_[d - 1] = stride_elems_[d] * dims_[d];
  }
}

void Dataspace::select_hyperslab(const std::vector<HyperslabDim>& slab) {
  PARAMRIO_REQUIRE(slab.size() == dims_.size(),
                   "select_hyperslab: rank mismatch");
  for (std::size_t d = 0; d < slab.size(); ++d) {
    const HyperslabDim& h = slab[d];
    PARAMRIO_REQUIRE(h.count > 0 && h.block > 0,
                     "select_hyperslab: empty selection");
    PARAMRIO_REQUIRE(h.stride >= h.block,
                     "select_hyperslab: blocks overlap (stride < block)");
    std::uint64_t last = h.start + (h.count - 1) * h.stride + h.block;
    PARAMRIO_REQUIRE(last <= dims_[d], "select_hyperslab: out of bounds");
  }
  slab_ = slab;
  none_ = false;
}

void Dataspace::select_block(const std::vector<std::uint64_t>& start,
                             const std::vector<std::uint64_t>& count) {
  PARAMRIO_REQUIRE(start.size() == dims_.size() && count.size() == dims_.size(),
                   "select_block: rank mismatch");
  std::vector<HyperslabDim> slab(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    slab[d] = HyperslabDim{start[d], /*stride=*/1, /*count=*/count[d],
                           /*block=*/1};
  }
  select_hyperslab(slab);
}

void Dataspace::select_none() {
  slab_.reset();
  none_ = true;
}

std::uint64_t Dataspace::total_elements() const {
  std::uint64_t n = 1;
  for (auto d : dims_) n *= d;
  return n;
}

std::uint64_t Dataspace::selected_elements() const {
  if (none_) return 0;
  if (!slab_) return total_elements();
  std::uint64_t n = 1;
  for (const HyperslabDim& h : *slab_) n *= h.count * h.block;
  return n;
}

std::uint64_t Dataspace::for_each_run(
    const std::function<void(const Run&)>& fn) const {
  if (none_) return 0;
  if (!slab_) {
    fn(Run{0, total_elements()});
    return 1;
  }
  Run pending{0, 0};
  std::uint64_t steps = recurse(0, 0, fn, pending);
  if (pending.element_count > 0) fn(pending);
  return steps;
}

std::uint64_t Dataspace::recurse(std::size_t dim, std::uint64_t base,
                                 const std::function<void(const Run&)>& fn,
                                 Run& pending) const {
  const HyperslabDim& h = (*slab_)[dim];
  std::uint64_t steps = 0;
  if (dim + 1 == dims_.size()) {
    // Fastest dimension: each (count) block is one run of `block` elements
    // (or one merged run when stride == block).
    for (std::uint64_t c = 0; c < h.count; ++c) {
      ++steps;
      std::uint64_t off = base + h.start + c * h.stride;
      if (pending.element_count > 0 &&
          pending.element_offset + pending.element_count == off) {
        pending.element_count += h.block;
      } else {
        if (pending.element_count > 0) fn(pending);
        pending = Run{off, h.block};
      }
    }
    return steps;
  }
  for (std::uint64_t c = 0; c < h.count; ++c) {
    for (std::uint64_t b = 0; b < h.block; ++b) {
      ++steps;
      std::uint64_t idx = h.start + c * h.stride + b;
      steps += recurse(dim + 1, base + idx * stride_elems_[dim], fn, pending);
    }
  }
  return steps;
}

std::vector<Dataspace::Run> Dataspace::runs() const {
  std::vector<Run> out;
  for_each_run([&](const Run& r) { out.push_back(r); });
  return out;
}

}  // namespace paramrio::hdf5
