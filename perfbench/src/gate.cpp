#include "gate.hpp"

#include "graph/algorithms.hpp"

namespace perfbench {

std::uint64_t count_wrong(const lowtw::graph::WeightedDigraph& g,
                          std::span<const Answer> answers) {
  std::vector<std::vector<lowtw::graph::Weight>> rows(
      static_cast<std::size_t>(g.num_vertices()));
  std::uint64_t wrong = 0;
  for (const Answer& a : answers) {
    if (a.u < 0 || a.u >= g.num_vertices() || a.v < 0 ||
        a.v >= g.num_vertices()) {
      ++wrong;
      continue;
    }
    auto& row = rows[static_cast<std::size_t>(a.u)];
    if (row.empty()) row = lowtw::graph::dijkstra(g, a.u).dist;
    if (row[static_cast<std::size_t>(a.v)] != a.distance) ++wrong;
  }
  return wrong;
}

}  // namespace perfbench
