// Shared fixtures for longtail tests: the paper's Figure 2 example, small
// closed-form graphs, and the absorbing-value recurrence (graph/markov.h)
// solved through the entry points the walkers serve with.
#ifndef LONGTAIL_TESTS_TEST_UTIL_H_
#define LONGTAIL_TESTS_TEST_UTIL_H_

#include <vector>

#include "data/dataset.h"
#include "graph/bipartite_graph.h"
#include "graph/markov.h"
#include "graph/walk_kernel.h"
#include "util/logging.h"

namespace longtail {
namespace testing {

// User/item indices of the paper's Figure 2 rating table.
inline constexpr UserId kU1 = 0, kU2 = 1, kU3 = 2, kU4 = 3, kU5 = 4;
inline constexpr ItemId kM1 = 0, kM2 = 1, kM3 = 2, kM4 = 3, kM5 = 4, kM6 = 5;

/// The exact 5-user / 6-movie rating matrix of Figure 2:
///        M1 M2 M3 M4 M5 M6
///   U1    5  3  -  -  3  5
///   U2    5  4  5  -  4  5
///   U3    4  5  4  -  -  -
///   U4    -  -  5  5  -  -
///   U5    -  4  5  -  -  -
inline Dataset MakeFigure2Dataset() {
  std::vector<RatingEntry> ratings = {
      {kU1, kM1, 5}, {kU1, kM2, 3}, {kU1, kM5, 3}, {kU1, kM6, 5},
      {kU2, kM1, 5}, {kU2, kM2, 4}, {kU2, kM3, 5}, {kU2, kM5, 4},
      {kU2, kM6, 5}, {kU3, kM1, 4}, {kU3, kM2, 5}, {kU3, kM3, 4},
      {kU4, kM3, 5}, {kU4, kM4, 5}, {kU5, kM2, 4}, {kU5, kM3, 5}};
  auto result = Dataset::Create(5, 6, std::move(ratings));
  LT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A star: one user connected to `num_items` items with unit weights.
inline Dataset MakeStarDataset(int num_items) {
  std::vector<RatingEntry> ratings;
  for (int i = 0; i < num_items; ++i) {
    ratings.push_back({0, i, 1.0f});
  }
  auto result = Dataset::Create(1, num_items, std::move(ratings));
  LT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A path u0 — i0 — u1 — i1 — ... alternating users and items,
/// `num_users` users and `num_users - 1` items, unit weights.
inline Dataset MakePathDataset(int num_users) {
  std::vector<RatingEntry> ratings;
  for (int u = 0; u + 1 < num_users; ++u) {
    ratings.push_back({u, u, 1.0f});      // u_k — i_k
    ratings.push_back({u + 1, u, 1.0f});  // i_k — u_{k+1}
  }
  auto result = Dataset::Create(num_users, num_users - 1, std::move(ratings));
  LT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Unit node costs: the recurrence's values are then absorbing times, and
/// with a one-node absorbing set {q}, hitting times H(q|·) (Def. 1).
inline std::vector<double> UnitCosts(const BipartiteGraph& g) {
  return std::vector<double>(g.num_nodes(), 1.0);
}

/// τ truncated sweeps of the recurrence on `kernel` (rebuilt for `g`; a
/// fresh one when null): BuildTransitions, CompileAbsorbingSweep and
/// SweepTruncated, the full sweep whose item rows the walkers' ranking
/// sweep reproduces bit for bit. Every row of the result is valid.
inline std::vector<double> TruncatedValues(const BipartiteGraph& g,
                                           const std::vector<bool>& absorbing,
                                           const std::vector<double>& node_cost,
                                           int iterations,
                                           WalkKernel* kernel = nullptr) {
  WalkKernel fresh;
  if (kernel == nullptr) kernel = &fresh;
  kernel->BuildTransitions(g, WalkNormalization::kRowStochastic);
  kernel->CompileAbsorbingSweep(absorbing, node_cost);
  std::vector<double> value;
  std::vector<double> scratch;
  kernel->SweepTruncated(iterations, &value, &scratch);
  return value;
}

/// The exact fixed point through AbsorbingValueExactInto, the solver behind
/// GraphWalkOptions::exact, at default SolverOptions.
inline Result<std::vector<double>> ExactValues(
    const BipartiteGraph& g, const std::vector<bool>& absorbing,
    const std::vector<double>& node_cost) {
  std::vector<double> value;
  SolverScratch scratch;
  LT_RETURN_IF_ERROR(
      AbsorbingValueExactInto(g, absorbing, node_cost, {}, &value, &scratch));
  return value;
}

}  // namespace testing
}  // namespace longtail

#endif  // LONGTAIL_TESTS_TEST_UTIL_H_
