// First-passage quantities of the random walk — hitting time (Eq. 5),
// absorbing time (Eq. 6) and absorbing cost (Eq. 8) — all instances of one
// generalized recurrence:
//     V(i) = 0                              if absorbing[i]
//     V(i) = node_cost(i) + Σ_j p_ij V(j)   otherwise,
// with p_ij = a(i,j)/d_i (Eq. 1). Unit node costs give absorbing time in
// expected steps (hitting time H(q|·) is the absorbing time of {q});
// EntropyNodeCostsInto gives the entropy-biased absorbing cost of Eq. 9.
//
// The walkers solve it two ways:
//  * Truncated — Algorithm 1's dynamic program iterated τ times from 0, on
//    the WalkKernel (graph/walk_kernel.h). Values increase monotonically
//    toward the exact fixed point; only the induced ranking is consumed.
//  * Exact — AbsorbingValueExactInto's Gauss–Seidel solve to a tight
//    tolerance (GraphWalkOptions::exact; tests and ablation).
#ifndef LONGTAIL_GRAPH_MARKOV_H_
#define LONGTAIL_GRAPH_MARKOV_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "linalg/solvers.h"
#include "util/status.h"

namespace longtail {

/// The truncated DP as a plain scalar loop, retained as the kernel's parity
/// and benchmark baseline: τ sweeps of
/// V_{t+1}(i) = node_cost(i) + Σ_j p_ij V_t(j) from V_0 ≡ 0, absorbing
/// nodes pinned at 0, with branchy per-row absorbing/isolated checks and
/// one weighted-degree divide per row. Isolated transient nodes grow by
/// their cost every sweep, and nodes unreachable from the absorbing set
/// grow ~ τ·cost, so both rank last. `absorbing` and `node_cost` are
/// node-indexed over `g`; `iterations <= 0` returns all zeros. The result
/// lands in `*value`, `*scratch` holds the double buffer.
/// WalkKernel::SweepTruncated agrees to ~1e-13 relative per iteration
/// (it pre-divides weights and re-associates the row sum);
/// tests/walk_kernel_test.cc pins the two together and
/// bench_table5_efficiency's "kernel" section times one against the other.
void AbsorbingValueTruncatedReference(const BipartiteGraph& g,
                                      const std::vector<bool>& absorbing,
                                      const std::vector<double>& node_cost,
                                      int iterations,
                                      std::vector<double>* value,
                                      std::vector<double>* scratch);

/// Exact fixed point of the recurrence via Gauss–Seidel on the transient
/// block, written into `*value` (resized to num_nodes). `absorbing` and
/// `node_cost` are node-indexed over `g` (InvalidArgument unless both sizes
/// equal num_nodes); the absorbing set must be non-empty (InvalidArgument
/// otherwise). Absorbing nodes come back exactly 0. Transient nodes that
/// cannot reach the absorbing set make the system singular, so they are
/// detected up front and assigned +infinity (consumers treat +inf as
/// unreachable). Converges to `options.tolerance` in the max norm or
/// returns Internal. Reachability markers and queue storage come from
/// `*scratch`, reused across queries.
Status AbsorbingValueExactInto(const BipartiteGraph& g,
                               const std::vector<bool>& absorbing,
                               const std::vector<double>& node_cost,
                               const SolverOptions& options,
                               std::vector<double>* value,
                               SolverScratch* scratch);

/// Writes the per-node expected immediate cost vector of Eq. 9 into
/// `*cost` (resized to num_nodes; units: nats when the entropies are
/// natural-log): items pay the entropy of the user they jump to (in
/// expectation), users pay the constant C.
///   node_cost(i) = Σ_j p_ij · E(user j)   for item nodes i
///   node_cost(u) = C                      for user nodes u
/// `user_entropy` is indexed by *local* user id (size g.num_users()).
/// Isolated items (weighted degree <= 0) are assigned C — their value is
/// never consumed, but the vector stays finite. Absorbing nodes are pinned
/// at 0 whatever their cost entry.
void EntropyNodeCostsInto(const BipartiteGraph& g,
                          const std::vector<double>& user_entropy,
                          double user_jump_cost, std::vector<double>* cost);

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_MARKOV_H_
