// Correctness gate: every distance the benchmark received is checked
// against graph::dijkstra after the timed window closes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace perfbench {

/// One answered query as the client saw it.
struct Answer {
  lowtw::graph::VertexId u = 0;
  lowtw::graph::VertexId v = 0;
  lowtw::graph::Weight distance = 0;  ///< kInfinity for "inf"
};

/// Returns how many answers disagree with Dijkstra on `g`. Rows are computed
/// once per distinct source, so the cost is bounded by n Dijkstra runs.
std::uint64_t count_wrong(const lowtw::graph::WeightedDigraph& g,
                          std::span<const Answer> answers);

}  // namespace perfbench
