// The Monte-Carlo simulator: steps follow the weighted transitions, and
// simulated absorbing times agree with the exact solve.
#include "random_walk_simulator.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace longtail {
namespace {

using testing::ExactValues;
using testing::MakeFigure2Dataset;
using testing::MakeStarDataset;
using testing::RandomWalkSimulator;
using testing::UnitCosts;

TEST(SimulatorTest, StepReachesOnlyNeighbors) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeFigure2Dataset());
  RandomWalkSimulator sim(&g);
  Rng rng(3);
  const NodeId start = g.UserNode(testing::kU5);
  for (int t = 0; t < 200; ++t) {
    auto next = sim.Step(start, &rng);
    ASSERT_TRUE(next.has_value());
    const ItemId item = g.ItemOf(*next);
    EXPECT_TRUE(item == testing::kM2 || item == testing::kM3);
  }
}

TEST(SimulatorTest, StepFromIsolatedNodeIsNull) {
  auto d = Dataset::Create(2, 1, {{0, 0, 1.0f}});
  ASSERT_TRUE(d.ok());
  BipartiteGraph g = BipartiteGraph::FromDataset(*d);
  RandomWalkSimulator sim(&g);
  Rng rng(4);
  EXPECT_FALSE(sim.Step(g.UserNode(1), &rng).has_value());
}

TEST(SimulatorTest, MonteCarloMatchesAnalyticAbsorbingTime) {
  // Star with 4 items, absorb at the user: every item is 1 step away.
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeStarDataset(4));
  RandomWalkSimulator sim(&g);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(0)] = true;
  Rng rng(5);
  const double estimate =
      sim.EstimateAbsorbingTime(g.ItemNode(2), absorbing, 2000, 1000, &rng);
  EXPECT_NEAR(estimate, 1.0, 1e-9);
}

TEST(SimulatorTest, MonteCarloMatchesExactOnFigure2) {
  Dataset d = MakeFigure2Dataset();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(testing::kU5)] = true;
  auto exact = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(exact.ok());
  RandomWalkSimulator sim(&g);
  Rng rng(6);
  const NodeId m4 = g.ItemNode(testing::kM4);
  const double estimate =
      sim.EstimateAbsorbingTime(m4, absorbing, 20000, 100000, &rng);
  // Monte-Carlo within ~3 standard errors (std dev of absorption time is
  // on the order of the mean here).
  EXPECT_NEAR(estimate, (*exact)[m4], 0.06 * (*exact)[m4]);
}

TEST(SimulatorTest, WalkFromAbsorbingNodeTakesZeroSteps) {
  BipartiteGraph g = BipartiteGraph::FromDataset(MakeStarDataset(3));
  RandomWalkSimulator sim(&g);
  std::vector<bool> absorbing(g.num_nodes(), true);
  Rng rng(7);
  auto steps = sim.WalkUntilAbsorbed(0, absorbing, 10, &rng);
  ASSERT_TRUE(steps.has_value());
  EXPECT_EQ(*steps, 0);
}

}  // namespace
}  // namespace longtail
