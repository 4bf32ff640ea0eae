#include "core/absorbing_time.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace longtail {
namespace {

using testing::ExactValues;
using testing::MakeFigure2Dataset;
using testing::UnitCosts;

GraphWalkOptions ExactOptions() {
  GraphWalkOptions options;
  options.exact = true;
  options.max_subgraph_items = 0;
  return options;
}

TEST(AbsorbingTimeRecommenderTest, Figure2PrefersNicheTasteMatch) {
  // With S_q = {M2, M3} absorbing, the Action-niche M4 (adjacent to U4 who
  // rated M3) should beat the popular drama-ish M5/M6.
  Dataset d = MakeFigure2Dataset();
  AbsorbingTimeRecommender rec(ExactOptions());
  ASSERT_TRUE(rec.Fit(d).ok());
  auto top = rec.RecommendTopK(testing::kU5, 4);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 4u);
  EXPECT_EQ((*top)[0].item, testing::kM4);
}

TEST(AbsorbingTimeRecommenderTest, MatchesManualAbsorbingTime) {
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.ItemNode(testing::kM2)] = true;
  absorbing[g.ItemNode(testing::kM3)] = true;
  auto manual = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(manual.ok());

  AbsorbingTimeRecommender rec(ExactOptions());
  ASSERT_TRUE(rec.Fit(d).ok());
  const std::vector<ItemId> items = {testing::kM1, testing::kM4, testing::kM5,
                                     testing::kM6};
  auto scores = rec.ScoreItems(testing::kU5, items);
  ASSERT_TRUE(scores.ok());
  for (size_t k = 0; k < items.size(); ++k) {
    EXPECT_NEAR((*scores)[k], -(*manual)[g.ItemNode(items[k])], 1e-9);
  }
}

TEST(AbsorbingTimeRecommenderTest, SingletonSetEqualsHittingTimeToItem) {
  // Def. 3: AT(S|i) with S = {j} equals H(j|i). Use a user with 1 rating.
  auto d = Dataset::Create(
      3, 3,
      {{0, 0, 5.0f}, {1, 0, 4.0f}, {1, 1, 3.0f}, {2, 1, 5.0f}, {2, 2, 2.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  std::vector<bool> target(g.num_nodes(), false);
  target[g.ItemNode(0)] = true;
  auto hit = ExactValues(g, target, UnitCosts(g));  // H(item 0|·)
  ASSERT_TRUE(hit.ok());

  AbsorbingTimeRecommender rec(ExactOptions());
  ASSERT_TRUE(rec.Fit(*d).ok());
  const std::vector<ItemId> items = {1, 2};
  auto scores = rec.ScoreItems(0, items);  // user 0 rated only item 0
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR((*scores)[0], -(*hit)[g.ItemNode(1)], 1e-9);
  EXPECT_NEAR((*scores)[1], -(*hit)[g.ItemNode(2)], 1e-9);
}

TEST(AbsorbingTimeRecommenderTest, TruncatedRankingStableAtTau15) {
  Dataset d = MakeFigure2Dataset();
  GraphWalkOptions options;
  options.iterations = 15;
  options.max_subgraph_items = 0;
  AbsorbingTimeRecommender truncated(options);
  AbsorbingTimeRecommender exact(ExactOptions());
  ASSERT_TRUE(truncated.Fit(d).ok());
  ASSERT_TRUE(exact.Fit(d).ok());
  for (UserId u = 0; u < d.num_users(); ++u) {
    auto a = exact.RecommendTopK(u, 3);
    auto b = truncated.RecommendTopK(u, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t k = 0; k < a->size(); ++k) {
      EXPECT_EQ((*a)[k].item, (*b)[k].item) << "user " << u << " pos " << k;
    }
  }
}

TEST(AbsorbingTimeRecommenderTest, SubgraphCapStillServesQueries) {
  Dataset d = MakeFigure2Dataset();
  GraphWalkOptions options;
  options.max_subgraph_items = 3;  // tiny µ
  AbsorbingTimeRecommender rec(options);
  ASSERT_TRUE(rec.Fit(d).ok());
  auto top = rec.RecommendTopK(testing::kU5, 4);
  ASSERT_TRUE(top.ok());
  EXPECT_GE(top->size(), 1u);
}

TEST(AbsorbingTimeRecommenderTest, ItemsOutsideSubgraphGetFloorScore) {
  // Disconnect M6's component from U5 by querying a user in a 2-node
  // component.
  auto d = Dataset::Create(2, 2, {{0, 0, 5.0f}, {1, 1, 5.0f}});
  ASSERT_TRUE(d.ok());
  AbsorbingTimeRecommender rec(ExactOptions());
  ASSERT_TRUE(rec.Fit(*d).ok());
  const std::vector<ItemId> items = {1};
  auto scores = rec.ScoreItems(0, items);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ((*scores)[0], kUnreachableScore);
}

TEST(AbsorbingTimeRecommenderTest, RatedItemsNeverRecommended) {
  Dataset d = MakeFigure2Dataset();
  AbsorbingTimeRecommender rec(ExactOptions());
  ASSERT_TRUE(rec.Fit(d).ok());
  for (UserId u = 0; u < d.num_users(); ++u) {
    auto top = rec.RecommendTopK(u, 6);
    ASSERT_TRUE(top.ok());
    for (const ScoredItem& si : *top) {
      EXPECT_FALSE(d.HasRating(u, si.item)) << "user " << u;
    }
  }
}

TEST(AbsorbingTimeRecommenderTest, ColdStartFails) {
  auto d = Dataset::Create(2, 2, {{0, 0, 5.0f}, {0, 1, 4.0f}});
  ASSERT_TRUE(d.ok());
  AbsorbingTimeRecommender rec;
  ASSERT_TRUE(rec.Fit(*d).ok());
  EXPECT_FALSE(rec.RecommendTopK(1, 2).ok());
}

TEST(AbsorbingTimeRecommenderTest, NameIsAT) {
  AbsorbingTimeRecommender rec;
  EXPECT_EQ(rec.name(), "AT");
}

}  // namespace
}  // namespace longtail
