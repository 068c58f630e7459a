// Seeded inputs of the benchmark: the instance and the request stream.
//
// Everything the program under test receives is generated here from the
// run's --seed, so one seed always yields the same instance and the same
// request sequence byte for byte (pinned by tests/test_inputs.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace perfbench {

using lowtw::graph::VertexId;

/// The oracle_daemon synthetic shape: partial 3-tree (keep 0.7), each edge
/// kept in both directions with probability 0.9, weights uniform in [1, 100].
lowtw::graph::WeightedDigraph make_instance(std::uint64_t seed, int n);

/// How the endpoints of a query are drawn.
enum class Endpoints { kUniform, kZipf };

/// An endless stream of (u, v) query pairs. Zipf ranks are mapped to
/// vertices through a seeded permutation, so the hot set is not tied to the
/// generator's vertex numbering.
class RequestStream {
 public:
  RequestStream(int n, Endpoints endpoints, double skew, std::uint64_t seed);

  std::pair<VertexId, VertexId> next() { return {draw(), draw()}; }

 private:
  VertexId draw();

  int n_;
  Endpoints endpoints_;
  lowtw::util::Rng rng_;
  std::vector<double> cdf_;           ///< Zipf rank CDF (empty when uniform)
  std::vector<VertexId> vertex_of_;   ///< rank - 1 -> vertex
};

}  // namespace perfbench
