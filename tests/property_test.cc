// Parameterized property sweeps over the core Markov machinery and the
// recommenders — invariants that must hold for any configuration.
#include <gtest/gtest.h>

#include <cmath>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/entropy.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "test_util.h"

namespace longtail {
namespace {

using testing::ExactValues;
using testing::TruncatedValues;
using testing::UnitCosts;

// ------------------------------------------------------------------------
// Property: on random synthetic graphs, for any absorbing set S and any S'
// ⊇ S, AT(S'|i) ≤ AT(S|i); truncation is monotone in τ and below exact.

struct WalkCase {
  uint64_t seed;
  int num_users;
  int num_items;
  double degree;
};

class MarkovPropertyTest : public ::testing::TestWithParam<WalkCase> {
 protected:
  Dataset MakeData() const {
    const WalkCase& wc = GetParam();
    SyntheticSpec spec;
    spec.num_users = wc.num_users;
    spec.num_items = wc.num_items;
    spec.mean_user_degree = wc.degree;
    spec.min_user_degree = 3;
    spec.num_genres = 4;
    spec.seed = wc.seed;
    auto data = GenerateSyntheticData(spec);
    EXPECT_TRUE(data.ok());
    return std::move(data).value().dataset;
  }
};

TEST_P(MarkovPropertyTest, LargerAbsorbingSetShrinksAbsorbingTime) {
  Dataset d = MakeData();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> small(g.num_nodes(), false);
  small[g.ItemNode(0)] = true;
  std::vector<bool> large = small;
  large[g.ItemNode(1)] = true;
  large[g.ItemNode(2)] = true;
  const auto at_small = TruncatedValues(g, small, UnitCosts(g), 30);
  const auto at_large = TruncatedValues(g, large, UnitCosts(g), 30);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(at_large[v], at_small[v] + 1e-9) << "node " << v;
  }
}

TEST_P(MarkovPropertyTest, TruncationMonotoneAndBoundedByExact) {
  Dataset d = MakeData();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.UserNode(0)] = true;
  auto exact = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(exact.ok());
  std::vector<double> prev(g.num_nodes(), 0.0);
  for (int tau : {1, 3, 7, 15, 40}) {
    const auto t = TruncatedValues(g, absorbing, UnitCosts(g), tau);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(t[v], prev[v] - 1e-9);
      if (std::isfinite((*exact)[v])) {
        EXPECT_LE(t[v], (*exact)[v] + 1e-6);
      }
    }
    prev = t;
  }
}

TEST_P(MarkovPropertyTest, ExactSolutionSatisfiesRecurrence) {
  // Spot-check Eq. 6: AT(S|i) = 1 + Σ p_ij AT(S|j) on every transient node.
  Dataset d = MakeData();
  BipartiteGraph g = BipartiteGraph::FromDataset(d);
  std::vector<bool> absorbing(g.num_nodes(), false);
  absorbing[g.ItemNode(0)] = true;
  absorbing[g.UserNode(0)] = true;
  auto at = ExactValues(g, absorbing, UnitCosts(g));
  ASSERT_TRUE(at.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (absorbing[v] || !std::isfinite((*at)[v])) continue;
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    const double deg = g.WeightedDegree(v);
    if (deg <= 0) continue;
    double rhs = 1.0;
    for (size_t k = 0; k < nbrs.size(); ++k) {
      rhs += wts[k] / deg * (*at)[nbrs[k]];
    }
    EXPECT_NEAR((*at)[v], rhs, 1e-6);
  }
}

constexpr WalkCase kWalkCases[] = {{1, 40, 30, 8.0},
                                   {2, 80, 50, 6.0},
                                   {3, 60, 90, 10.0},
                                   {4, 25, 25, 5.0},
                                   {5, 120, 40, 7.0}};

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MarkovPropertyTest,
                         ::testing::ValuesIn(kWalkCases));

// ------------------------------------------------------------------------
// Property: every recommender in the family honours the query contract for
// all (algorithm, µ, τ) combinations.

struct RecCase {
  int algorithm;  // 0=HT 1=AT 2=AC1 3=AC2
  int tau;
  int32_t mu;
};

class RecommenderPropertyTest : public ::testing::TestWithParam<RecCase> {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 60;
    spec.num_items = 50;
    spec.mean_user_degree = 10;
    spec.min_user_degree = 4;
    spec.num_genres = 4;
    spec.seed = 500;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  std::unique_ptr<Recommender> MakeRecommender() const {
    const RecCase& rc = GetParam();
    GraphWalkOptions walk;
    walk.iterations = rc.tau;
    walk.max_subgraph_items = rc.mu;
    AbsorbingCostOptions ac;
    ac.walk = walk;
    ac.lda.num_topics = 3;
    ac.lda.iterations = 10;
    switch (rc.algorithm) {
      case 0:
        return std::make_unique<HittingTimeRecommender>(walk);
      case 1:
        return std::make_unique<AbsorbingTimeRecommender>(walk);
      case 2:
        return std::make_unique<AbsorbingCostRecommender>(
            EntropySource::kItemBased, ac);
      default:
        return std::make_unique<AbsorbingCostRecommender>(
            EntropySource::kTopicBased, ac);
    }
  }

  static Dataset* data_;
};

Dataset* RecommenderPropertyTest::data_ = nullptr;

TEST_P(RecommenderPropertyTest, TopKContractHolds) {
  auto rec = MakeRecommender();
  ASSERT_TRUE(rec->Fit(*data_).ok());
  for (UserId u = 0; u < 10; ++u) {
    auto top = rec->RecommendTopK(u, 8);
    ASSERT_TRUE(top.ok()) << rec->name() << " user " << u;
    EXPECT_LE(top->size(), 8u);
    // Sorted by score descending; no rated items; no duplicates.
    for (size_t k = 0; k < top->size(); ++k) {
      EXPECT_FALSE(data_->HasRating(u, (*top)[k].item));
      if (k > 0) {
        EXPECT_GE((*top)[k - 1].score, (*top)[k].score);
        EXPECT_NE((*top)[k - 1].item, (*top)[k].item);
      }
    }
  }
}

TEST_P(RecommenderPropertyTest, ScoreItemsAgreesWithTopK) {
  auto rec = MakeRecommender();
  ASSERT_TRUE(rec->Fit(*data_).ok());
  // With a tiny µ some users' subgraphs hold only their own rated items and
  // legitimately yield empty lists; find a user that produces candidates.
  int covered = 0;
  for (UserId u = 0; u < data_->num_users() && covered < 5; ++u) {
    auto top = rec->RecommendTopK(u, 5);
    ASSERT_TRUE(top.ok());
    if (top->empty()) continue;
    ++covered;
    std::vector<ItemId> items;
    for (const auto& si : *top) items.push_back(si.item);
    auto scores = rec->ScoreItems(u, items);
    ASSERT_TRUE(scores.ok());
    for (size_t k = 0; k < items.size(); ++k) {
      EXPECT_NEAR((*scores)[k], (*top)[k].score, 1e-9) << rec->name();
    }
  }
  EXPECT_GE(covered, 1) << rec->name() << " produced no lists at all";
}

TEST_P(RecommenderPropertyTest, DeterministicAcrossInstances) {
  auto r1 = MakeRecommender();
  auto r2 = MakeRecommender();
  ASSERT_TRUE(r1->Fit(*data_).ok());
  ASSERT_TRUE(r2->Fit(*data_).ok());
  auto t1 = r1->RecommendTopK(5, 6);
  auto t2 = r2->RecommendTopK(5, 6);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_EQ(t1->size(), t2->size());
  for (size_t k = 0; k < t1->size(); ++k) {
    EXPECT_EQ((*t1)[k].item, (*t2)[k].item);
    EXPECT_DOUBLE_EQ((*t1)[k].score, (*t2)[k].score);
  }
}

constexpr RecCase kRecCases[] = {{0, 5, 0},   {0, 15, 20}, {1, 5, 0},
                                 {1, 15, 20}, {1, 30, 10}, {2, 15, 0},
                                 {2, 10, 15}, {3, 15, 0},  {3, 10, 15}};

std::string RecCaseName(const ::testing::TestParamInfo<RecCase>& info) {
  static const char* const kNames[] = {"HT", "AT", "AC1", "AC2"};
  return std::string(kNames[info.param.algorithm]) + "_tau" +
         std::to_string(info.param.tau) + "_mu" +
         std::to_string(info.param.mu);
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsByTauMu, RecommenderPropertyTest,
                         ::testing::ValuesIn(kRecCases), RecCaseName);

// ------------------------------------------------------------------------
// Property: entropy bounds hold for every user across generator settings.

class EntropyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyPropertyTest, ItemEntropyBounds) {
  SyntheticSpec spec;
  spec.num_users = 50;
  spec.num_items = 60;
  spec.mean_user_degree = 12;
  spec.min_user_degree = 2;
  spec.seed = GetParam();
  auto data = GenerateSyntheticData(spec);
  ASSERT_TRUE(data.ok());
  const auto entropy = ItemBasedUserEntropy(data->dataset);
  for (UserId u = 0; u < data->dataset.num_users(); ++u) {
    EXPECT_GE(entropy[u], 0.0);
    EXPECT_LE(entropy[u],
              std::log(static_cast<double>(data->dataset.UserDegree(u))) +
                  1e-9)
        << "entropy exceeds log(degree) for user " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace longtail
