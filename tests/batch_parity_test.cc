// Batch/sequential parity: the batch query engine must return results
// bit-identical to the per-user RecommendTopK/ScoreItems path for every
// suite algorithm, at any thread count. This is the contract that lets the
// eval harness and benches run entirely on the batch API.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/pagerank.h"
#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/graph_recommender_base.h"
#include "core/hitting_time.h"
#include "data/generator.h"

namespace longtail {
namespace {

class BatchParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 100;
    spec.num_items = 80;
    spec.mean_user_degree = 10;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 4242;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// Builds the five graph/walk algorithms named by the parity requirement:
  /// HT, AT, AC1, AC2, DPPR.
  static std::vector<std::unique_ptr<Recommender>> BuildSuite() {
    std::vector<std::unique_ptr<Recommender>> suite;
    suite.push_back(std::make_unique<HittingTimeRecommender>());
    suite.push_back(std::make_unique<AbsorbingTimeRecommender>());
    AbsorbingCostOptions ac;
    ac.lda.num_topics = 4;
    ac.lda.iterations = 15;
    suite.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kItemBased, ac));
    suite.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kTopicBased, ac));
    suite.push_back(
        std::make_unique<PageRankRecommender>(/*discounted=*/true));
    for (auto& rec : suite) {
      EXPECT_TRUE(rec->Fit(*data_).ok()) << rec->name();
    }
    return suite;
  }

  static std::vector<UserId> TestUsers() {
    std::vector<UserId> users;
    for (UserId u = 0; u < std::min<UserId>(50, data_->num_users()); ++u) {
      users.push_back(u);
    }
    return users;
  }

  static Dataset* data_;
};

Dataset* BatchParityTest::data_ = nullptr;

void ExpectIdenticalLists(const std::vector<ScoredItem>& expected,
                          const std::vector<ScoredItem>& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(expected[k].item, actual[k].item) << label << " pos " << k;
    // Bit-identical, not approximately equal: the batch engine must run
    // the exact same walk.
    EXPECT_EQ(expected[k].score, actual[k].score) << label << " pos " << k;
  }
}

TEST_F(BatchParityTest, RecommendBatchMatchesSequential) {
  const std::vector<UserId> users = TestUsers();
  const int k = 10;
  for (const auto& rec : BuildSuite()) {
    std::vector<std::vector<ScoredItem>> expected(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      auto top = rec->RecommendTopK(users[i], k);
      ASSERT_TRUE(top.ok()) << rec->name();
      expected[i] = std::move(top).value();
    }
    for (size_t threads : {1u, 4u}) {
      BatchOptions options;
      options.num_threads = threads;
      auto batch = rec->RecommendBatch(users, k, options);
      ASSERT_EQ(batch.size(), users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << rec->name() << " user " << users[i];
        ExpectIdenticalLists(expected[i], *batch[i],
                             rec->name() + "@" + std::to_string(threads) +
                                 "t user " + std::to_string(users[i]));
      }
    }
  }
}

TEST_F(BatchParityTest, ScoreBatchMatchesSequential) {
  const std::vector<UserId> users = TestUsers();
  // Per-user candidate lists with different lengths and orders.
  std::vector<std::vector<ItemId>> candidates(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const int len = 5 + static_cast<int>(i % 7);
    for (int j = 0; j < len; ++j) {
      candidates[i].push_back(
          static_cast<ItemId>((i * 13 + j * 5) % data_->num_items()));
    }
  }
  for (const auto& rec : BuildSuite()) {
    std::vector<std::vector<double>> expected(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      auto scores = rec->ScoreItems(users[i], candidates[i]);
      ASSERT_TRUE(scores.ok()) << rec->name();
      expected[i] = std::move(scores).value();
    }
    for (size_t threads : {1u, 4u}) {
      BatchOptions options;
      options.num_threads = threads;
      auto batch = rec->ScoreBatch(users, candidates, options);
      ASSERT_EQ(batch.size(), users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << rec->name();
        EXPECT_EQ(expected[i], *batch[i])
            << rec->name() << "@" << threads << "t user " << users[i];
      }
    }
  }
}

// A combined query (top-k + candidate scores) must equal the two separate
// calls — the graph engine serves both from one walk.
TEST_F(BatchParityTest, CombinedQueryMatchesSeparateCalls) {
  AbsorbingTimeRecommender rec;
  ASSERT_TRUE(rec.Fit(*data_).ok());
  const std::vector<ItemId> candidates = {0, 3, 7, 11, 19};
  std::vector<UserQuery> queries;
  for (UserId u = 0; u < 20; ++u) {
    UserQuery q;
    q.user = u;
    q.top_k = 5;
    q.score_items = candidates;
    queries.push_back(q);
  }
  for (size_t threads : {1u, 4u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto results = rec.QueryBatch(queries, options);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      auto top = rec.RecommendTopK(queries[i].user, 5);
      auto scores = rec.ScoreItems(queries[i].user, candidates);
      ASSERT_TRUE(top.ok());
      ASSERT_TRUE(scores.ok());
      ExpectIdenticalLists(*top, results[i].top_k,
                           "combined@" + std::to_string(threads));
      EXPECT_EQ(*scores, results[i].scores);
    }
  }
}

// Per-query failures (out-of-range users here) must not fail the batch:
// every other query still gets served.
TEST_F(BatchParityTest, FailedQueriesAreIsolated) {
  AbsorbingTimeRecommender rec;
  ASSERT_TRUE(rec.Fit(*data_).ok());
  std::vector<UserId> users = {0, -5, 1, data_->num_users() + 7, 2};
  for (size_t threads : {1u, 4u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto batch = rec.RecommendBatch(users, 5, options);
    ASSERT_EQ(batch.size(), users.size());
    EXPECT_TRUE(batch[0].ok());
    EXPECT_FALSE(batch[1].ok());
    EXPECT_TRUE(batch[2].ok());
    EXPECT_FALSE(batch[3].ok());
    EXPECT_TRUE(batch[4].ok());
    auto expected = rec.RecommendTopK(0, 5);
    ASSERT_TRUE(expected.ok());
    ExpectIdenticalLists(*expected, *batch[0], "after failures");
  }
}

// Duplicated users force the fused multi-query sweep: queries with equal
// seed sets group onto one subgraph and advance as interleaved lanes of a
// single CSR pass. Results must be bit-identical to the sequential
// per-user calls at every fused width ceiling (including width 1, where
// every group sweeps in one-lane slices) and thread count, and the width
// observer must account for every served query exactly once.
TEST_F(BatchParityTest, FusedGroupingMatchesUngroupedAcrossWidthsAndThreads) {
  for (const auto& rec : BuildSuite()) {
    // DPPR is in the parity suite but is not a graph-walk engine: it takes
    // the default per-query dispatch and never invokes the observer.
    const bool graph_engine =
        dynamic_cast<const GraphRecommenderBase*>(rec.get()) != nullptr;
    const std::vector<ItemId> candidates = {2, 5, 9, 14, 21};
    // 6 copies of a hot user + assorted singletons and smaller duplicate
    // runs, interleaved so grouping has to reorder, plus one bad user whose
    // failure must stay isolated inside its would-be group.
    const std::vector<UserId> pattern = {7, 3, 7, 12, 7, 3,  7, -1, 25,
                                         7, 3, 7, 30, 12, 3, 31, 32, 33};
    std::vector<UserQuery> queries;
    for (UserId u : pattern) {
      UserQuery q;
      q.user = u;
      q.top_k = 6;
      q.score_items = candidates;
      queries.push_back(q);
    }
    std::vector<UserQueryResult> expected(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto top = rec->RecommendTopK(queries[i].user, 6);
      if (!top.ok()) {
        expected[i].status = top.status();
        continue;
      }
      expected[i].top_k = std::move(top).value();
      auto scores = rec->ScoreItems(queries[i].user, candidates);
      ASSERT_TRUE(scores.ok()) << rec->name();
      expected[i].scores = std::move(scores).value();
    }
    std::mutex mu;
    std::vector<int32_t> widths;
    std::function<void(int32_t)> observer = [&](int32_t width) {
      std::lock_guard<std::mutex> lock(mu);
      widths.push_back(width);
    };
    for (size_t threads : {1u, 8u}) {
      for (int32_t cap : {0, 1, 2, 3, 8}) {
        BatchOptions options;
        options.num_threads = threads;
        options.max_fused_width = cap;
        options.fused_width_observer = &observer;
        {
          std::lock_guard<std::mutex> lock(mu);
          widths.clear();
        }
        auto results = rec->QueryBatch(queries, options);
        ASSERT_EQ(results.size(), queries.size());
        const std::string label = rec->name() + " cap " + std::to_string(cap) +
                                  " @" + std::to_string(threads) + "t";
        size_t served = 0;
        for (size_t i = 0; i < queries.size(); ++i) {
          if (!expected[i].status.ok()) {
            EXPECT_EQ(expected[i].status.code(), results[i].status.code())
                << label;
            continue;
          }
          ASSERT_TRUE(results[i].status.ok()) << label << " query " << i;
          ++served;
          ExpectIdenticalLists(expected[i].top_k, results[i].top_k,
                               label + " query " + std::to_string(i));
          EXPECT_EQ(expected[i].scores, results[i].scores)
              << label << " query " << i;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (!graph_engine) {
          // Non-graph recommenders never invoke the observer.
          EXPECT_TRUE(widths.empty()) << label;
        } else {
          int64_t lanes = 0;
          for (int32_t w : widths) {
            lanes += w;
            EXPECT_GE(w, 1) << label;
            if (cap > 0) EXPECT_LE(w, cap) << label;
          }
          // Every successfully served query rode exactly one dispatched
          // sweep. Width 1 still groups, in one-lane slices; with 6 copies
          // of user 7 and a cap above 1, at least one sweep must actually
          // have fused.
          EXPECT_EQ(lanes, static_cast<int64_t>(served)) << label;
          if (cap == 1) {
            EXPECT_EQ(widths.size(), served) << label;
          } else {
            EXPECT_GT(*std::max_element(widths.begin(), widths.end()), 1)
                << label;
          }
        }
      }
    }
  }
}

// Exact-solver configurations run the Gauss–Seidel path through the
// workspace; parity must hold there too.
TEST_F(BatchParityTest, ExactSolverBatchMatchesSequential) {
  GraphWalkOptions walk;
  walk.exact = true;
  AbsorbingTimeRecommender rec(walk);
  ASSERT_TRUE(rec.Fit(*data_).ok());
  std::vector<UserId> users = TestUsers();
  std::vector<std::vector<ScoredItem>> expected(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    auto top = rec.RecommendTopK(users[i], 8);
    ASSERT_TRUE(top.ok());
    expected[i] = std::move(top).value();
  }
  BatchOptions options;
  options.num_threads = 4;
  auto batch = rec.RecommendBatch(users, 8, options);
  for (size_t i = 0; i < users.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    ExpectIdenticalLists(expected[i], *batch[i], "exact");
  }
}

}  // namespace
}  // namespace longtail
