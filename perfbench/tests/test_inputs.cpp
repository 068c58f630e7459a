// One seed gives the same instance and the same request sequence, byte for
// byte; another seed gives different ones.
#include <algorithm>
#include <string>
#include <vector>

#include "expect.hpp"
#include "inputs.hpp"

namespace {

using perfbench::Endpoints;

/// One "tail head weight" line per arc.
std::string serialize(const lowtw::graph::WeightedDigraph& g) {
  std::string out = std::to_string(g.num_vertices()) + "\n";
  for (const lowtw::graph::Arc& a : g.arcs()) {
    out += std::to_string(a.tail) + ' ' + std::to_string(a.head) + ' ' +
           std::to_string(a.weight) + '\n';
  }
  return out;
}

std::string requests(std::uint64_t seed, Endpoints endpoints, double skew) {
  perfbench::RequestStream stream(2000, endpoints, skew, seed);
  std::string out;
  for (int i = 0; i < 100000; ++i) {
    const auto [u, v] = stream.next();
    out += "Q " + std::to_string(i) + ' ' + std::to_string(u) + ' ' +
           std::to_string(v) + '\n';
  }
  return out;
}

}  // namespace

int main() {
  const std::string a = serialize(perfbench::make_instance(7, 2000));
  EXPECT(a == serialize(perfbench::make_instance(7, 2000)));
  EXPECT(a != serialize(perfbench::make_instance(8, 2000)));

  for (const auto& [endpoints, skew] :
       {std::pair{Endpoints::kUniform, 0.0}, std::pair{Endpoints::kZipf, 1.2}}) {
    const std::string r = requests(7, endpoints, skew);
    EXPECT(r == requests(7, endpoints, skew));
    EXPECT(r != requests(8, endpoints, skew));
  }

  // The Zipf mix is skewed: its most frequent source carries far more than
  // a uniform share (1/2000) of the traffic.
  perfbench::RequestStream zipf(2000, Endpoints::kZipf, 1.2, 7);
  std::vector<int> count(2000, 0);
  for (int i = 0; i < 100000; ++i) ++count[static_cast<std::size_t>(zipf.next().first)];
  int top = 0;
  for (int c : count) top = std::max(top, c);
  EXPECT(top > 10000);
  return 0;
}
