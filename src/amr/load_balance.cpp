#include "amr/load_balance.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

namespace paramrio::amr {

std::vector<int> balance_greedy(const std::vector<std::uint64_t>& weights,
                                int nprocs) {
  PARAMRIO_REQUIRE(nprocs >= 1, "balance_greedy: nprocs must be >= 1");
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;  // deterministic tie-break
  });
  // Each grid goes to the least-loaded rank, the lowest-numbered one among
  // equals, found in O(log P) from a min-heap of (load, rank).
  using Slot = std::pair<std::uint64_t, int>;
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) slots.emplace_back(0, r);
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> least(
      std::greater<>{}, std::move(slots));
  std::vector<int> owner(weights.size(), 0);
  for (std::size_t i : order) {
    auto [load, rank] = least.top();
    least.pop();
    owner[i] = rank;
    least.emplace(load + weights[i], rank);
  }
  return owner;
}

std::vector<std::uint64_t> assign_owners(Hierarchy& hierarchy, int nprocs) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> weights;
  for (const GridDescriptor& g : hierarchy.grids()) {
    if (g.level == 0) continue;
    ids.push_back(g.id);
    weights.push_back(g.cell_count());
  }
  std::vector<int> owners = balance_greedy(weights, nprocs);
  std::vector<std::uint64_t> load(static_cast<std::size_t>(nprocs), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    hierarchy.grid_mut(ids[i]).owner = owners[i];
    load[static_cast<std::size_t>(owners[i])] += weights[i];
  }
  return load;
}

}  // namespace paramrio::amr
