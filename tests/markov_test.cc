#include "graph/markov.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace longtail {
namespace {

using testing::ExactValues;
using testing::MakeFigure2Dataset;
using testing::MakePathDataset;
using testing::MakeStarDataset;
using testing::TruncatedValues;
using testing::UnitCosts;

/// H(target|·) for every source node: the exact absorbing time of the
/// one-node absorbing set {target}.
Result<std::vector<double>> HittingTimes(const BipartiteGraph& g,
                                         NodeId target) {
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[target] = true;
  return ExactValues(g, absorbing, UnitCosts(g));
}

// ---------------------------------------------------------------- Exact

TEST(AbsorbingTimeExactTest, SingleEdgeGraph) {
  // u — i, absorb at u: AT(i) = 1.
  auto d = Dataset::Create(1, 1, {{0, 0, 3.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  std::vector<bool> absorbing = {true, false};
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(at.ok());
  EXPECT_NEAR((*at)[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ((*at)[0], 0.0);
}

TEST(AbsorbingTimeExactTest, StarClosedForm) {
  // Star center u with d items, absorb at item 0:
  // E[center] = 2d − 1, E[other item] = 2d.
  for (int deg : {2, 3, 5, 10}) {
    BipartiteGraph g = BipartiteGraph::FromDataset(MakeStarDataset(deg));
    std::vector<bool> absorbing(g.num_nodes(), false);
    absorbing[g.ItemNode(0)] = true;
    auto at = ExactValues(g, absorbing, UnitCosts(g));
    ASSERT_TRUE(at.ok());
    EXPECT_NEAR((*at)[g.UserNode(0)], 2.0 * deg - 1.0, 1e-8) << deg;
    if (deg > 1) {
      EXPECT_NEAR((*at)[g.ItemNode(1)], 2.0 * deg, 1e-8) << deg;
    }
  }
}

TEST(AbsorbingTimeExactTest, PathGamblersRuin) {
  // Path u0-i0-u1-i1-u2 (positions 0..4), absorb at u2, reflecting at u0.
  // Classic result: E[from position k] = n² − k² with n = 4.
  BipartiteGraph g = BipartiteGraph::FromDataset(MakePathDataset(3));
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(2)] = true;
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(at.ok());
  EXPECT_NEAR((*at)[g.UserNode(0)], 16.0, 1e-8);  // position 0
  EXPECT_NEAR((*at)[g.ItemNode(0)], 15.0, 1e-8);  // position 1
  EXPECT_NEAR((*at)[g.UserNode(1)], 12.0, 1e-8);  // position 2
  EXPECT_NEAR((*at)[g.ItemNode(1)], 7.0, 1e-8);   // position 3
}

TEST(AbsorbingTimeExactTest, WeightedTwoItemStar) {
  // u connected to i0 (w=4) and i1 (w=1); absorb at i0.
  // E[u] = (1 + p1) / p0 with p0 = 0.8 → E[u] = 1.5; E[i1] = 2.5.
  auto d = Dataset::Create(1, 2, {{0, 0, 4.0f}, {0, 1, 1.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.ItemNode(0)] = true;
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(at.ok());
  EXPECT_NEAR((*at)[g.UserNode(0)], 1.5, 1e-9);
  EXPECT_NEAR((*at)[g.ItemNode(1)], 2.5, 1e-9);
}

TEST(AbsorbingTimeExactTest, UnreachableNodesAreInfinite) {
  // Two disconnected components; absorbing set in one of them.
  auto d = Dataset::Create(2, 2, {{0, 0, 1.0f}, {1, 1, 1.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(0)] = true;
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(at.ok());
  EXPECT_TRUE(std::isinf((*at)[g.UserNode(1)]));
  EXPECT_TRUE(std::isinf((*at)[g.ItemNode(1)]));
  EXPECT_NEAR((*at)[g.ItemNode(0)], 1.0, 1e-9);
}

TEST(AbsorbingTimeExactTest, EmptyAbsorbingSetRejected) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeStarDataset(2));
  std::vector<bool> absorbing(g.num_nodes(), false);
  EXPECT_FALSE(ExactValues(g, absorbing, UnitCosts(g)).ok());
}

// ------------------------------------------------------------- Figure 2

TEST(HittingTimeTest, Figure2ReproducesPaperRanking) {
  // §3.3: H(U5|M4)=17.7 < H(U5|M1)=19.6 < H(U5|M5)=20.2 < H(U5|M6)=20.3.
  // Our rating-weighted walk reproduces the ordering exactly; absolute
  // values land within ~5% (the paper's normalization is unspecified).
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  auto h = HittingTimes(g, g.UserNode(testing::kU5));
  ASSERT_TRUE(h.ok());
  const double m4 = (*h)[g.ItemNode(testing::kM4)];
  const double m1 = (*h)[g.ItemNode(testing::kM1)];
  const double m5 = (*h)[g.ItemNode(testing::kM5)];
  const double m6 = (*h)[g.ItemNode(testing::kM6)];
  // Paper's ranking: the niche movie M4 wins.
  EXPECT_LT(m4, m1);
  EXPECT_LT(m1, m5);
  EXPECT_LT(m5, m6);
  // Paper's values within 6% relative tolerance.
  EXPECT_NEAR(m4, 17.7, 0.06 * 17.7);
  EXPECT_NEAR(m1, 19.6, 0.06 * 19.6);
  EXPECT_NEAR(m5, 20.2, 0.06 * 20.2);
  EXPECT_NEAR(m6, 20.3, 0.06 * 20.3);
}

TEST(HittingTimeTest, RatedItemsCloserThanPaperExample) {
  // Items U5 actually rated should have the smallest hitting times of all.
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  auto h = HittingTimes(g, g.UserNode(testing::kU5));
  ASSERT_TRUE(h.ok());
  const double m2 = (*h)[g.ItemNode(testing::kM2)];
  const double m3 = (*h)[g.ItemNode(testing::kM3)];
  const double m4 = (*h)[g.ItemNode(testing::kM4)];
  EXPECT_LT(m2, m4);
  EXPECT_LT(m3, m4);
}

// ------------------------------------------------------------ Truncated

TEST(AbsorbingTimeTruncatedTest, AbsorbingStaysZero) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.ItemNode(testing::kM2)] = true;
  absorbing[g.ItemNode(testing::kM3)] = true;
  const auto at = TruncatedValues(g, absorbing, UnitCosts(g), 20);
  EXPECT_DOUBLE_EQ(at[g.ItemNode(testing::kM2)], 0.0);
  EXPECT_DOUBLE_EQ(at[g.ItemNode(testing::kM3)], 0.0);
}

TEST(AbsorbingTimeTruncatedTest, MonotoneNondecreasingInTau) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(testing::kU5)] = true;
  std::vector<double> prev(g.num_nodes(), 0.0);
  for (int tau : {1, 2, 4, 8, 16, 32}) {
    const auto at = TruncatedValues(g, absorbing, UnitCosts(g), tau);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(at[v], prev[v] - 1e-12);
    }
    prev = at;
  }
}

TEST(AbsorbingTimeTruncatedTest, BoundedByAndConvergesToExact) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(testing::kU5)] = true;
  auto exact = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(exact.ok());
  const auto truncated = TruncatedValues(g, absorbing, UnitCosts(g), 2000);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(truncated[v], (*exact)[v] + 1e-9);
    EXPECT_NEAR(truncated[v], (*exact)[v], 1e-3 * std::max(1.0, (*exact)[v]));
  }
}

TEST(AbsorbingTimeTruncatedTest, Tau15PreservesExactRanking) {
  // §4.1: "when we use 15 iterations, it already achieves almost the same
  // results to the exact solution" — check the induced item ranking.
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(testing::kU5)] = true;
  auto exact = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(exact.ok());
  const auto truncated = TruncatedValues(g, absorbing, UnitCosts(g), 15);
  // Compare pairwise orderings over the unrated items (M1, M4, M5, M6).
  const std::vector<ItemId> items = {testing::kM1, testing::kM4, testing::kM5,
                                     testing::kM6};
  for (ItemId a : items) {
    for (ItemId b : items) {
      if (a == b) continue;
      const bool exact_less =
          (*exact)[g.ItemNode(a)] < (*exact)[g.ItemNode(b)];
      const bool trunc_less =
          truncated[g.ItemNode(a)] < truncated[g.ItemNode(b)];
      EXPECT_EQ(exact_less, trunc_less)
          << "ranking flip between items " << a << " and " << b;
    }
  }
}

TEST(AbsorbingTimeTruncatedTest, ZeroIterationsIsZero) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeStarDataset(3));
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(0)] = true;
  const auto at = TruncatedValues(g, absorbing, UnitCosts(g), 0);
  for (double v : at) EXPECT_DOUBLE_EQ(v, 0.0);
}

// -------------------------------------------------------- Absorbing cost

TEST(AbsorbingCostTest, ScalingCostsScalesValues) {
  // With node_cost ≡ c, the fixed point is c · AT.
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(testing::kU5)] = true;
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  auto scaled =
      ExactValues(g, absorbing, std::vector<double>(g.num_nodes(), 2.5));
  ASSERT_TRUE(at.ok());
  ASSERT_TRUE(scaled.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (std::isinf((*at)[v])) continue;
    EXPECT_NEAR((*scaled)[v], 2.5 * (*at)[v], 1e-6);
  }
}

TEST(EntropyNodeCostsTest, UserNodesGetConstant) {
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<double> entropy(d.num_users(), 0.7);
  std::vector<double> costs;
  EntropyNodeCostsInto(g, entropy, 3.0, &costs);
  for (UserId u = 0; u < d.num_users(); ++u) {
    EXPECT_DOUBLE_EQ(costs[g.UserNode(u)], 3.0);
  }
  // With uniform entropy 0.7 the expected item cost is exactly 0.7.
  for (ItemId i = 0; i < d.num_items(); ++i) {
    EXPECT_NEAR(costs[g.ItemNode(i)], 0.7, 1e-12);
  }
}

TEST(EntropyNodeCostsTest, ItemCostIsExpectedNeighborEntropy) {
  // M3's raters: U2 (w5), U3 (w4), U4 (w5), U5 (w5); give them distinct
  // entropies and verify the weighted average.
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<double> entropy = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<double> costs;
  EntropyNodeCostsInto(g, entropy, 1.0, &costs);
  const double expected =
      (5 * 0.2 + 4 * 0.3 + 5 * 0.4 + 5 * 0.5) / (5.0 + 4.0 + 5.0 + 5.0);
  EXPECT_NEAR(costs[g.ItemNode(testing::kM3)], expected, 1e-12);
}

}  // namespace
}  // namespace longtail
