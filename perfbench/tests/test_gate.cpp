// The correctness gate passes the oracle's own answers and trips on one
// corrupted answer.
#include <vector>

#include "expect.hpp"
#include "gate.hpp"
#include "inputs.hpp"
#include "serving/oracle.hpp"

int main() {
  using lowtw::graph::kInfinity;
  const lowtw::graph::WeightedDigraph g = perfbench::make_instance(3, 300);
  lowtw::serving::Oracle oracle(g);
  oracle.rebuild_snapshot();

  perfbench::RequestStream stream(300, perfbench::Endpoints::kUniform, 0, 3);
  std::vector<perfbench::Answer> answers;
  for (int i = 0; i < 2000; ++i) {
    const auto [u, v] = stream.next();
    const lowtw::serving::QueryResponse r = oracle.serve_now(u, v);
    EXPECT(r.status == lowtw::serving::ServeStatus::kOk);
    answers.push_back({u, v, r.distance});
  }
  EXPECT(perfbench::count_wrong(g, answers) == 0);

  // One distance off by one.
  std::vector<perfbench::Answer> off_by_one = answers;
  std::size_t finite = 0;
  while (off_by_one[finite].distance >= kInfinity) ++finite;
  off_by_one[finite].distance += 1;
  EXPECT(perfbench::count_wrong(g, off_by_one) == 1);

  // One reachable pair reported unreachable.
  std::vector<perfbench::Answer> lost = answers;
  lost[finite].distance = kInfinity;
  EXPECT(perfbench::count_wrong(g, lost) == 1);

  // One answer naming a vertex outside the instance.
  std::vector<perfbench::Answer> out_of_range = answers;
  out_of_range.back().v = 300;
  EXPECT(perfbench::count_wrong(g, out_of_range) == 1);
  return 0;
}
