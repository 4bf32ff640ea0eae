#include "graph/markov.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace longtail {

namespace {

// Marks nodes that can reach the absorbing set (reverse BFS — the graph is
// undirected so forward reachability equals reverse reachability). Fills
// `*reach` (1 = reachable); `*queue` is scratch storage.
void ReachableFromAbsorbing(const BipartiteGraph& g,
                            const std::vector<bool>& absorbing,
                            std::vector<uint8_t>* reach,
                            std::vector<NodeId>* queue) {
  const int32_t n = g.num_nodes();
  reach->assign(n, 0);
  queue->clear();
  for (int32_t v = 0; v < n; ++v) {
    if (absorbing[v]) {
      (*reach)[v] = 1;
      queue->push_back(v);
    }
  }
  for (size_t head = 0; head < queue->size(); ++head) {
    const NodeId v = (*queue)[head];
    for (NodeId nbr : g.Neighbors(v)) {
      if (!(*reach)[nbr]) {
        (*reach)[nbr] = 1;
        queue->push_back(nbr);
      }
    }
  }
}

}  // namespace

void AbsorbingValueTruncatedReference(const BipartiteGraph& g,
                                      const std::vector<bool>& absorbing,
                                      const std::vector<double>& node_cost,
                                      int iterations,
                                      std::vector<double>* value_out,
                                      std::vector<double>* scratch) {
  const int32_t n = g.num_nodes();
  LT_CHECK_EQ(static_cast<size_t>(n), absorbing.size());
  LT_CHECK_EQ(static_cast<size_t>(n), node_cost.size());
  std::vector<double>& value = *value_out;
  std::vector<double>& next = *scratch;
  value.assign(n, 0.0);
  next.assign(n, 0.0);
  for (int t = 0; t < iterations; ++t) {
    for (int32_t v = 0; v < n; ++v) {
      if (absorbing[v]) {
        next[v] = 0.0;
        continue;
      }
      const double d = g.WeightedDegree(v);
      if (d <= 0.0) {
        // Isolated node: never absorbed; accumulates cost forever.
        next[v] = value[v] + node_cost[v];
        continue;
      }
      const auto nbrs = g.Neighbors(v);
      const auto wts = g.Weights(v);
      double acc = 0.0;
      for (size_t k = 0; k < nbrs.size(); ++k) {
        acc += wts[k] * value[nbrs[k]];
      }
      next[v] = node_cost[v] + acc / d;
    }
    value.swap(next);
  }
}

Status AbsorbingValueExactInto(const BipartiteGraph& g,
                               const std::vector<bool>& absorbing,
                               const std::vector<double>& node_cost,
                               const SolverOptions& options,
                               std::vector<double>* value_out,
                               SolverScratch* scratch) {
  const int32_t n = g.num_nodes();
  if (absorbing.size() != static_cast<size_t>(n) ||
      node_cost.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(
        "absorbing/node_cost size must equal num_nodes");
  }
  bool any_absorbing = false;
  for (int32_t v = 0; v < n; ++v) any_absorbing |= absorbing[v] != 0;
  if (!any_absorbing) {
    return Status::InvalidArgument("absorbing set must be non-empty");
  }
  ReachableFromAbsorbing(g, absorbing, &scratch->flags, &scratch->queue);
  const std::vector<uint8_t>& reach = scratch->flags;

  // Gauss–Seidel directly on the graph (avoids materializing P):
  //   V(i) ← node_cost(i) + Σ_j p_ij V(j)
  // over transient reachable nodes. Self-loops do not occur (bipartite).
  std::vector<double>& value = *value_out;
  value.assign(n, 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  for (int32_t v = 0; v < n; ++v) {
    if (!reach[v] && !absorbing[v]) value[v] = inf;
  }
  double delta = inf;
  int it = 0;
  for (; it < options.max_iterations && delta >= options.tolerance; ++it) {
    delta = 0.0;
    for (int32_t v = 0; v < n; ++v) {
      if (absorbing[v] || !reach[v]) continue;
      const double d = g.WeightedDegree(v);
      if (d <= 0.0) continue;  // unreachable already handled
      const auto nbrs = g.Neighbors(v);
      const auto wts = g.Weights(v);
      double acc = 0.0;
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const double nv = value[nbrs[k]];
        if (std::isinf(nv)) continue;  // weight to unreachable is impossible
        acc += wts[k] * nv;
      }
      const double nv = node_cost[v] + acc / d;
      delta = std::max(delta, std::abs(nv - value[v]));
      value[v] = nv;
    }
  }
  if (delta >= options.tolerance) {
    return Status::Internal("absorbing-value solve did not converge after " +
                            std::to_string(it) + " iterations (delta=" +
                            std::to_string(delta) + ")");
  }
  return Status::OK();
}

void EntropyNodeCostsInto(const BipartiteGraph& g,
                          const std::vector<double>& user_entropy,
                          double user_jump_cost, std::vector<double>* cost_out) {
  LT_CHECK_EQ(static_cast<size_t>(g.num_users()), user_entropy.size());
  const int32_t n = g.num_nodes();
  std::vector<double>& cost = *cost_out;
  cost.assign(n, 0.0);
  for (int32_t v = 0; v < n; ++v) {
    if (g.IsUserNode(v)) {
      cost[v] = user_jump_cost;
      continue;
    }
    // Item node: expected entropy of the user reached in one step.
    const double d = g.WeightedDegree(v);
    if (d <= 0.0) {
      cost[v] = user_jump_cost;  // Isolated item; value is irrelevant.
      continue;
    }
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    double acc = 0.0;
    for (size_t k = 0; k < nbrs.size(); ++k) {
      acc += wts[k] * user_entropy[g.UserOf(nbrs[k])];
    }
    cost[v] = acc / d;
  }
}

}  // namespace longtail
