// WalkWorkspace: a reused workspace must extract exactly what a fresh one
// does, invalidate stale lookups between queries in O(1), and reuse its
// buffers across graphs of different sizes.
#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "test_util.h"

namespace longtail {
namespace {

using testing::MakeFigure2Dataset;
using testing::MakePathDataset;

void ExpectSameSubgraph(const Subgraph& expected, const Subgraph& actual,
                        const BipartiteGraph& g) {
  ASSERT_EQ(expected.users, actual.users);
  ASSERT_EQ(expected.items, actual.items);
  ASSERT_EQ(expected.graph.num_nodes(), actual.graph.num_nodes());
  ASSERT_EQ(expected.graph.num_edges(), actual.graph.num_edges());
  for (NodeId v = 0; v < expected.graph.num_nodes(); ++v) {
    const auto en = expected.graph.Neighbors(v);
    const auto an = actual.graph.Neighbors(v);
    ASSERT_EQ(en.size(), an.size()) << "node " << v;
    for (size_t k = 0; k < en.size(); ++k) {
      EXPECT_EQ(en[k], an[k]) << "node " << v << " entry " << k;
      EXPECT_EQ(expected.graph.Weights(v)[k], actual.graph.Weights(v)[k]);
    }
    EXPECT_EQ(expected.graph.WeightedDegree(v),
              actual.graph.WeightedDegree(v));
  }
  for (UserId u = 0; u < g.num_users(); ++u) {
    EXPECT_EQ(expected.LocalUserNode(u), actual.LocalUserNode(u))
        << "user " << u;
  }
  for (ItemId i = 0; i < g.num_items(); ++i) {
    EXPECT_EQ(expected.LocalItemNode(i), actual.LocalItemNode(i))
        << "item " << i;
  }
}

TEST(WalkWorkspaceTest, ReusedWorkspaceMatchesFreshOne) {
  const Dataset d = MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(d);
  WalkWorkspace workspace;
  for (UserId u = 0; u < d.num_users(); ++u) {
    SubgraphOptions options;
    options.max_items = 0;
    const std::vector<NodeId> seeds = {g.UserNode(u)};
    WalkWorkspace fresh;
    const Subgraph& expected = ExtractSubgraphInto(g, seeds, options, &fresh);
    const Subgraph& actual = ExtractSubgraphInto(g, seeds, options,
                                                 &workspace);
    ExpectSameSubgraph(expected, actual, g);
  }
}

TEST(WalkWorkspaceTest, ReusedWorkspaceMatchesFreshOneWithCap) {
  auto data = GenerateSyntheticData(SyntheticSpec::MovieLensLike(0.02));
  ASSERT_TRUE(data.ok());
  const Dataset& d = data->dataset;
  const BipartiteGraph g = BipartiteGraph::FromDataset(d);
  WalkWorkspace workspace;
  SubgraphOptions options;
  options.max_items = 40;
  for (UserId u = 0; u < std::min<UserId>(25, d.num_users()); ++u) {
    const std::vector<NodeId> seeds = {g.UserNode(u)};
    WalkWorkspace fresh;
    const Subgraph& expected = ExtractSubgraphInto(g, seeds, options, &fresh);
    const Subgraph& actual = ExtractSubgraphInto(g, seeds, options,
                                                 &workspace);
    ExpectSameSubgraph(expected, actual, g);
  }
}

// A node present in query 1's subgraph but absent from query 2's must look
// absent after query 2 — the epoch bump invalidates stale table entries.
TEST(WalkWorkspaceTest, StaleLookupsInvalidatedBetweenQueries) {
  // Path graph u0-i0-u1-i1-...: a 1-hop cap around u0 excludes the far end.
  const Dataset d = MakePathDataset(6);
  const BipartiteGraph g = BipartiteGraph::FromDataset(d);
  WalkWorkspace workspace;
  SubgraphOptions uncapped;
  uncapped.max_items = 0;
  const Subgraph& full = ExtractSubgraphInto(g, {g.UserNode(0)}, uncapped,
                                             &workspace);
  EXPECT_GE(full.LocalUserNode(5), 0);
  EXPECT_GE(full.LocalItemNode(4), 0);

  SubgraphOptions capped;
  capped.max_items = 1;
  const Subgraph& small = ExtractSubgraphInto(g, {g.UserNode(0)}, capped,
                                              &workspace);
  // Far end of the path is now outside the subgraph; stale entries from the
  // previous (full) extraction must not leak through.
  EXPECT_EQ(small.LocalUserNode(5), -1);
  EXPECT_EQ(small.LocalItemNode(4), -1);
  EXPECT_GE(small.LocalUserNode(0), 0);
  EXPECT_EQ(small.LocalUserNode(-1), -1);
  EXPECT_EQ(small.LocalItemNode(999), -1);
}

// One workspace must serve graphs of different sizes back to back (the
// thread-local single-query path sees whatever recommender calls next).
TEST(WalkWorkspaceTest, ReusableAcrossGraphs) {
  const Dataset small = MakePathDataset(3);
  const Dataset big = MakeFigure2Dataset();
  const BipartiteGraph gs = BipartiteGraph::FromDataset(small);
  const BipartiteGraph gb = BipartiteGraph::FromDataset(big);
  WalkWorkspace workspace;
  SubgraphOptions options;
  options.max_items = 0;
  const Subgraph& s1 = ExtractSubgraphInto(gs, {gs.UserNode(0)}, options,
                                           &workspace);
  EXPECT_EQ(s1.users.size(), 3u);
  const Subgraph& s2 = ExtractSubgraphInto(gb, {gb.UserNode(0)}, options,
                                           &workspace);
  EXPECT_EQ(s2.users.size(), 5u);
  EXPECT_EQ(s2.items.size(), 6u);
  const Subgraph& s3 = ExtractSubgraphInto(gs, {gs.UserNode(2)}, options,
                                           &workspace);
  EXPECT_EQ(s3.users.size(), 3u);
}

// Solver scratch reused across queries must not change the exact solve.
TEST(WalkWorkspaceTest, ExactSolveReusesScratch) {
  const Dataset d = MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.ItemNode(0)] = true;
  const std::vector<double> unit = testing::UnitCosts(g);
  auto expected = testing::ExactValues(g, absorbing, unit);
  ASSERT_TRUE(expected.ok());
  std::vector<double> value;
  SolverScratch scratch;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(AbsorbingValueExactInto(g, absorbing, unit, {}, &value,
                                        &scratch)
                    .ok());
    EXPECT_EQ(*expected, value) << "round " << round;
  }
}

// In-place BipartiteGraph assignment must equal FromAdjacency output.
TEST(WalkWorkspaceTest, InPlaceAssignMatchesFromAdjacency) {
  std::vector<std::vector<std::pair<NodeId, double>>> adjacency(4);
  // 2 users, 2 items: u0-i0 (w=2), u0-i1 (w=3), u1-i1 (w=5).
  auto add = [&](NodeId a, NodeId b, double w) {
    adjacency[a].push_back({b, w});
    adjacency[b].push_back({a, w});
  };
  add(0, 2, 2.0);
  add(0, 3, 3.0);
  add(1, 3, 5.0);
  const BipartiteGraph expected = BipartiteGraph::FromAdjacency(2, 2,
                                                                adjacency);
  BipartiteGraph g;
  const std::vector<int32_t> degrees = {2, 1, 1, 2};
  for (int round = 0; round < 2; ++round) {
    g.BeginAssign(2, 2, degrees);
    g.AssignEdge(0, 2, 2.0);
    g.AssignEdge(0, 3, 3.0);
    g.AssignEdge(1, 3, 5.0);
    g.FinishAssign();
    ASSERT_EQ(expected.num_nodes(), g.num_nodes());
    EXPECT_EQ(expected.num_edges(), g.num_edges());
    EXPECT_EQ(expected.TotalWeight(), g.TotalWeight());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(expected.Degree(v), g.Degree(v));
      EXPECT_EQ(expected.WeightedDegree(v), g.WeightedDegree(v));
      for (int32_t k = 0; k < g.Degree(v); ++k) {
        EXPECT_EQ(expected.Neighbors(v)[k], g.Neighbors(v)[k]);
        EXPECT_EQ(expected.Weights(v)[k], g.Weights(v)[k]);
      }
    }
  }
}

}  // namespace
}  // namespace longtail
