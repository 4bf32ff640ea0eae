// Monte-Carlo random walks on the bipartite graph (§3.2): weight-
// proportional steps, p_ij = a(i,j)/d_i (Eq. 1). Tests use the simulated
// absorbing times as an anchor for Eq. 5/6 that shares no code with the
// solvers.
#ifndef LONGTAIL_TESTS_RANDOM_WALK_SIMULATOR_H_
#define LONGTAIL_TESTS_RANDOM_WALK_SIMULATOR_H_

#include <optional>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/logging.h"
#include "util/random.h"

namespace longtail {
namespace testing {

class RandomWalkSimulator {
 public:
  explicit RandomWalkSimulator(const BipartiteGraph* g) : g_(g) {}

  /// One transition from `from` (weight-proportional). Returns nullopt for
  /// isolated nodes.
  std::optional<NodeId> Step(NodeId from, Rng* rng) const {
    const auto nbrs = g_->Neighbors(from);
    if (nbrs.empty()) return std::nullopt;
    const auto wts = g_->Weights(from);
    double r = rng->NextDouble() * g_->WeightedDegree(from);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      r -= wts[k];
      if (r <= 0.0) return nbrs[k];
    }
    return nbrs.back();
  }

  /// Walks from `start` until any node with absorbing[node]==true is reached
  /// or `max_steps` transitions happen. Returns steps taken, or nullopt if
  /// the cap was hit before absorption.
  std::optional<int64_t> WalkUntilAbsorbed(NodeId start,
                                           const std::vector<bool>& absorbing,
                                           int64_t max_steps, Rng* rng) const {
    NodeId cur = start;
    for (int64_t step = 0; step < max_steps; ++step) {
      if (absorbing[cur]) return step;
      const auto next = Step(cur, rng);
      if (!next.has_value()) return std::nullopt;  // Stuck at isolated node.
      cur = *next;
    }
    return absorbing[cur] ? std::optional<int64_t>(max_steps) : std::nullopt;
  }

  /// Monte-Carlo estimate of the absorbing time from `start`. Walks that hit
  /// `max_steps` are truncated at max_steps (biases long walks down; use a
  /// generous cap).
  double EstimateAbsorbingTime(NodeId start, const std::vector<bool>& absorbing,
                               int num_walks, int64_t max_steps,
                               Rng* rng) const {
    LT_CHECK_GT(num_walks, 0);
    double total = 0.0;
    for (int w = 0; w < num_walks; ++w) {
      const auto steps = WalkUntilAbsorbed(start, absorbing, max_steps, rng);
      total += static_cast<double>(steps.value_or(max_steps));
    }
    return total / num_walks;
  }

 private:
  const BipartiteGraph* g_;
};

}  // namespace testing
}  // namespace longtail

#endif  // LONGTAIL_TESTS_RANDOM_WALK_SIMULATOR_H_
