#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/generator.h"
#include "test_util.h"

namespace longtail {
namespace {

using testing::MakeFigure2Dataset;
using testing::MakePathDataset;

TEST(SubgraphTest, FullGraphWhenUncapped) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  SubgraphOptions options;
  options.max_items = 0;  // no cap
  WalkWorkspace ws;
  const Subgraph& sub =
      ExtractSubgraphInto(g, {g.UserNode(testing::kU5)}, options, &ws);
  // Figure 2's graph is connected, so everything is reached.
  EXPECT_EQ(sub.users.size(), 5u);
  EXPECT_EQ(sub.items.size(), 6u);
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
}

TEST(SubgraphTest, SeedAlwaysIncluded) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  SubgraphOptions options;
  options.max_items = 1;
  WalkWorkspace ws;
  const Subgraph& sub =
      ExtractSubgraphInto(g, {g.ItemNode(testing::kM4)}, options, &ws);
  EXPECT_GE(sub.items.size(), 1u);
  EXPECT_GE(sub.LocalItemNode(testing::kM4), 0);
}

TEST(SubgraphTest, RespectsItemCapApproximately) {
  // The cap is checked after each insertion: item count stays within the
  // cap + one BFS neighbor expansion.
  auto data = GenerateSyntheticData(SyntheticSpec::MovieLensLike(0.05));
  ASSERT_TRUE(data.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(data->dataset);
  SubgraphOptions options;
  options.max_items = 30;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {g.UserNode(0)}, options, &ws);
  EXPECT_GE(static_cast<int32_t>(sub.items.size()), 1);
  EXPECT_LE(static_cast<int32_t>(sub.items.size()), options.max_items + 1);
}

TEST(SubgraphTest, MappingsRoundTrip) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  SubgraphOptions options;
  options.max_items = 0;
  WalkWorkspace ws;
  const Subgraph& sub =
      ExtractSubgraphInto(g, {g.UserNode(testing::kU5)}, options, &ws);
  for (size_t lu = 0; lu < sub.users.size(); ++lu) {
    EXPECT_EQ(sub.LocalUserNode(sub.users[lu]), static_cast<NodeId>(lu));
  }
  for (size_t li = 0; li < sub.items.size(); ++li) {
    EXPECT_EQ(sub.LocalItemNode(sub.items[li]),
              static_cast<NodeId>(sub.users.size() + li));
  }
  EXPECT_EQ(sub.LocalUserNode(-1), -1);
  EXPECT_EQ(sub.LocalItemNode(999), -1);
}

TEST(SubgraphTest, InducedWeightsMatchOriginal) {
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  SubgraphOptions options;
  options.max_items = 0;
  WalkWorkspace ws;
  const Subgraph& sub =
      ExtractSubgraphInto(g, {g.UserNode(testing::kU5)}, options, &ws);
  // Every induced edge weight equals the original rating.
  for (size_t lu = 0; lu < sub.users.size(); ++lu) {
    const NodeId local = static_cast<NodeId>(lu);
    const auto nbrs = sub.graph.Neighbors(local);
    const auto wts = sub.graph.Weights(local);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      const ItemId item = sub.items[sub.graph.ItemOf(nbrs[k])];
      EXPECT_DOUBLE_EQ(wts[k], d.GetRating(sub.users[lu], item));
    }
  }
}

TEST(SubgraphTest, DisconnectedComponentExcluded) {
  // Two components: {u0, i0} and {u1, i1}. BFS from u0 never reaches u1.
  auto d = Dataset::Create(2, 2, {{0, 0, 1.0f}, {1, 1, 1.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  SubgraphOptions options;
  options.max_items = 0;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {g.UserNode(0)}, options, &ws);
  EXPECT_EQ(sub.users.size(), 1u);
  EXPECT_EQ(sub.items.size(), 1u);
  EXPECT_EQ(sub.LocalUserNode(1), -1);
  EXPECT_EQ(sub.LocalItemNode(1), -1);
}

TEST(SubgraphTest, BfsLevelsExpandOutward) {
  // On a path graph, a small cap keeps only nearby nodes.
  BipartiteGraph g = BipartiteGraph::FromDataset(MakePathDataset(6));
  SubgraphOptions options;
  options.max_items = 2;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {g.UserNode(0)}, options, &ws);
  // Items are i0..i4 along the path; the closest ones are kept.
  EXPECT_GE(sub.LocalItemNode(0), 0);
  EXPECT_EQ(sub.LocalItemNode(4), -1);
}

TEST(SubgraphTest, MultipleSeeds) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakePathDataset(6));
  SubgraphOptions options;
  options.max_items = 1;
  WalkWorkspace ws;
  const Subgraph& sub =
      ExtractSubgraphInto(g, {g.UserNode(0), g.UserNode(5)}, options, &ws);
  EXPECT_GE(sub.LocalUserNode(0), 0);
  EXPECT_GE(sub.LocalUserNode(5), 0);
}

/// Exact equality of two induced CSRs: rows, columns, weights, degrees.
void ExpectSameCsr(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  EXPECT_TRUE(std::ranges::equal(a.RowPointers(), b.RowPointers()));
  EXPECT_TRUE(std::ranges::equal(a.FlatNeighbors(), b.FlatNeighbors()));
  EXPECT_TRUE(std::ranges::equal(a.FlatWeights(), b.FlatWeights()));
  EXPECT_TRUE(std::ranges::equal(a.WeightedDegrees(), b.WeightedDegrees()));
}

// A BFS that drains without the cap firing holds the whole component, in
// ascending global ids — whether µ is off or merely larger than the
// component — although seeding at U5 and M3 visits them first.
TEST(SubgraphTest, DrainedExtractionIsSortedAscending) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  for (int32_t mu : {0, 6, 100}) {
    SubgraphOptions options;
    options.max_items = mu;
    WalkWorkspace ws;
    const Subgraph& sub = ExtractSubgraphInto(
      g, {g.UserNode(testing::kU5), g.ItemNode(testing::kM3)}, options, &ws);
    EXPECT_EQ(sub.users, (std::vector<UserId>{0, 1, 2, 3, 4})) << "mu " << mu;
    EXPECT_EQ(sub.items, (std::vector<ItemId>{0, 1, 2, 3, 4, 5}))
        << "mu " << mu;
  }
}

// Different seed sets in one component yield the identical subgraph, so
// every query in the component can walk one shared copy.
TEST(SubgraphTest, DrainedExtractionIsSeedIndependent) {
  auto data = GenerateSyntheticData(SyntheticSpec::MovieLensLike(0.05));
  ASSERT_TRUE(data.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(data->dataset);
  SubgraphOptions options;
  options.max_items = 0;
  WalkWorkspace ws_a;
  WalkWorkspace ws_b;
  const Subgraph& a = ExtractSubgraphInto(g, {g.UserNode(0)}, options, &ws_a);
  ASSERT_GT(a.items.size(), 1u);
  const NodeId far_item = g.ItemNode(a.items.back());
  const Subgraph& b = ExtractSubgraphInto(
      g, {far_item, g.UserNode(a.users.back())}, options, &ws_b);
  EXPECT_TRUE(std::ranges::is_sorted(a.users));
  EXPECT_TRUE(std::ranges::is_sorted(a.items));
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.items, b.items);
  ExpectSameCsr(a.graph, b.graph);
}

// A capped extraction keeps BFS visit order. On the path u0-i0-u1-...-u5,
// seeding at u5 with µ = 2 visits u5, i4, u4, i3, u3, i2, and the third
// item fires the cap.
TEST(SubgraphTest, TruncatedExtractionKeepsBfsOrder) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakePathDataset(6));
  SubgraphOptions options;
  options.max_items = 2;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {g.UserNode(5)}, options, &ws);
  EXPECT_EQ(sub.users, (std::vector<UserId>{5, 4, 3}));
  EXPECT_EQ(sub.items, (std::vector<ItemId>{4, 3, 2}));
}

}  // namespace
}  // namespace longtail
