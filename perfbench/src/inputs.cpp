#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/generators.hpp"

namespace perfbench {

lowtw::graph::WeightedDigraph make_instance(std::uint64_t seed, int n) {
  lowtw::util::Rng rng(seed);
  lowtw::graph::Graph topo = lowtw::graph::gen::partial_ktree(n, 3, 0.7, rng);
  return lowtw::graph::gen::random_orientation(topo, 0.9, 1, 100, rng);
}

RequestStream::RequestStream(int n, Endpoints endpoints, double skew,
                             std::uint64_t seed)
    // The traffic stream is independent of the instance stream drawn from
    // the same seed.
    : n_(n), endpoints_(endpoints), rng_(~seed) {
  if (endpoints_ != Endpoints::kZipf) return;
  cdf_.resize(static_cast<std::size_t>(n));
  double acc = 0;
  for (int r = 1; r <= n; ++r) {
    acc += std::pow(static_cast<double>(r), -skew);
    cdf_[static_cast<std::size_t>(r - 1)] = acc;
  }
  for (double& c : cdf_) c /= acc;
  vertex_of_.resize(static_cast<std::size_t>(n));
  std::iota(vertex_of_.begin(), vertex_of_.end(), 0);
  rng_.shuffle(vertex_of_);
}

VertexId RequestStream::draw() {
  if (endpoints_ == Endpoints::kUniform) {
    return static_cast<VertexId>(rng_.next_below(static_cast<std::uint64_t>(n_)));
  }
  const double x = rng_.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return vertex_of_[rank];
}

}  // namespace perfbench
