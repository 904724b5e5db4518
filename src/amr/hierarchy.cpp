#include "amr/hierarchy.hpp"

#include <algorithm>

namespace paramrio::amr {

void Hierarchy::set_root(const std::array<std::uint64_t, 3>& dims) {
  PARAMRIO_REQUIRE(grids_.empty(), "Hierarchy: root already set");
  GridDescriptor root;
  root.id = 0;
  root.level = 0;
  root.parent = 0;
  root.dims = dims;
  grids_.push_back(root);
  next_id_ = 1;
}

std::uint64_t Hierarchy::add_grid(GridDescriptor desc) {
  PARAMRIO_REQUIRE(!grids_.empty(), "Hierarchy: set_root first");
  PARAMRIO_REQUIRE(has(desc.parent), "Hierarchy: unknown parent grid");
  const GridDescriptor& parent = grid(desc.parent);
  PARAMRIO_REQUIRE(desc.level == parent.level + 1,
                   "Hierarchy: child level must be parent level + 1");
  for (int d = 0; d < 3; ++d) {
    auto ud = static_cast<std::size_t>(d);
    PARAMRIO_REQUIRE(desc.left_edge[ud] >= parent.left_edge[ud] - 1e-12 &&
                         desc.right_edge[ud] <= parent.right_edge[ud] + 1e-12,
                     "Hierarchy: child does not nest inside parent");
    PARAMRIO_REQUIRE(desc.right_edge[ud] > desc.left_edge[ud],
                     "Hierarchy: degenerate grid");
    PARAMRIO_REQUIRE(desc.dims[ud] > 0, "Hierarchy: zero-cell grid");
  }
  PARAMRIO_REQUIRE(next_id_ > grids_.back().id,
                   "Hierarchy: grid ids must ascend");
  desc.id = next_id_++;
  children_[desc.parent].push_back(desc.id);
  grids_.push_back(desc);
  return desc.id;
}

void Hierarchy::clear_subgrids() {
  PARAMRIO_REQUIRE(!grids_.empty(), "Hierarchy: no root");
  GridDescriptor root = grids_[0];
  grids_.assign(1, root);
  children_.clear();
  // Keep assigning fresh ids so stale references are detectable.
}

std::size_t Hierarchy::find(std::uint64_t id) const {
  auto it = std::lower_bound(
      grids_.begin(), grids_.end(), id,
      [](const GridDescriptor& g, std::uint64_t v) { return g.id < v; });
  return it != grids_.end() && it->id == id
             ? static_cast<std::size_t>(it - grids_.begin())
             : grids_.size();
}

const GridDescriptor& Hierarchy::grid(std::uint64_t id) const {
  const std::size_t i = find(id);
  PARAMRIO_REQUIRE(i != grids_.size(),
                   "Hierarchy: no grid " + std::to_string(id));
  return grids_[i];
}

GridDescriptor& Hierarchy::grid_mut(std::uint64_t id) {
  const std::size_t i = find(id);
  PARAMRIO_REQUIRE(i != grids_.size(),
                   "Hierarchy: no grid " + std::to_string(id));
  return grids_[i];
}

const std::vector<std::uint64_t>& Hierarchy::children(std::uint64_t id) const {
  static const std::vector<std::uint64_t> kNone;
  auto it = children_.find(id);
  return it == children_.end() ? kNone : it->second;
}

std::vector<std::uint64_t> Hierarchy::level_grids(int level) const {
  std::vector<std::uint64_t> ids;
  for (const auto& g : grids_) {
    if (g.level == level) ids.push_back(g.id);
  }
  return ids;
}

int Hierarchy::max_level() const {
  int m = 0;
  for (const auto& g : grids_) m = std::max(m, g.level);
  return m;
}

std::uint64_t Hierarchy::total_cells() const {
  std::uint64_t n = 0;
  for (const auto& g : grids_) n += g.cell_count();
  return n;
}

void Hierarchy::validate() const {
  PARAMRIO_REQUIRE(!grids_.empty(), "validate: empty hierarchy");
  const GridDescriptor& root = grids_[0];
  PARAMRIO_REQUIRE(root.level == 0, "validate: first grid is not the root");
  for (int d = 0; d < 3; ++d) {
    auto u = static_cast<std::size_t>(d);
    PARAMRIO_REQUIRE(root.left_edge[u] == 0.0 && root.right_edge[u] == 1.0,
                     "validate: root does not cover the unit domain");
  }
  int max_lvl = max_level();
  for (int lvl = 1; lvl <= max_lvl; ++lvl) {
    auto ids = level_grids(lvl);
    PARAMRIO_REQUIRE(!ids.empty(),
                     "validate: empty level " + std::to_string(lvl) +
                         " below max level");
    // Pairwise disjointness within the level (AMR grids never overlap).
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const GridDescriptor& a = grid(ids[i]);
      PARAMRIO_REQUIRE(grid(a.parent).level == lvl - 1,
                       "validate: parent level mismatch for grid " +
                           std::to_string(a.id));
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const GridDescriptor& b = grid(ids[j]);
        bool overlap = true;
        for (int d = 0; d < 3; ++d) {
          auto u = static_cast<std::size_t>(d);
          if (a.right_edge[u] <= b.left_edge[u] + 1e-12 ||
              b.right_edge[u] <= a.left_edge[u] + 1e-12) {
            overlap = false;
            break;
          }
        }
        PARAMRIO_REQUIRE(!overlap, "validate: grids " + std::to_string(a.id) +
                                       " and " + std::to_string(b.id) +
                                       " overlap at level " +
                                       std::to_string(lvl));
      }
    }
  }
}

std::vector<std::byte> Hierarchy::serialize() const {
  ByteWriter w;
  w.u64(grids_.size());
  w.u64(next_id_);
  for (const auto& g : grids_) {
    w.u64(g.id);
    w.u32(static_cast<std::uint32_t>(g.level));
    w.u64(g.parent);
    for (double e : g.left_edge) w.f64(e);
    for (double e : g.right_edge) w.f64(e);
    for (auto d : g.dims) w.u64(d);
    w.u32(static_cast<std::uint32_t>(g.owner));
  }
  return w.take();
}

Hierarchy Hierarchy::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  Hierarchy h;
  std::uint64_t n = r.u64();
  std::uint64_t next_id = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    GridDescriptor g;
    g.id = r.u64();
    g.level = static_cast<int>(r.u32());
    g.parent = r.u64();
    for (double& e : g.left_edge) e = r.f64();
    for (double& e : g.right_edge) e = r.f64();
    for (auto& d : g.dims) d = r.u64();
    g.owner = static_cast<int>(r.u32());
    if (i == 0) {
      PARAMRIO_REQUIRE(g.level == 0 && g.id == 0,
                       "Hierarchy: first grid must be root");
      h.set_root(g.dims);
      h.grids_[0] = g;
    } else {
      // Re-add preserving the original id.
      std::uint64_t saved_next = h.next_id_;
      h.next_id_ = g.id;
      h.add_grid(g);
      h.next_id_ = std::max(saved_next, g.id + 1);
    }
  }
  h.next_id_ = std::max(h.next_id_, next_id);
  return h;
}

}  // namespace paramrio::amr
