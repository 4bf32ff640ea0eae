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
  /// HT, AT, AC1, AC2, DPPR. The default µ cannot cap this 80-item corpus,
  /// so its walkers serve every user from one component payload.
  static std::vector<std::unique_ptr<Recommender>> BuildSuite(
      GraphWalkOptions walk = {}) {
    std::vector<std::unique_ptr<Recommender>> suite;
    suite.push_back(std::make_unique<HittingTimeRecommender>(walk));
    suite.push_back(std::make_unique<AbsorbingTimeRecommender>(walk));
    AbsorbingCostOptions ac;
    ac.walk = walk;
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

// Grouped queries advance as interleaved lanes of a single CSR pass. At
// the default µ every user of the component groups onto its payload: the
// 40 valid queries below run as fused slices of 16, 16 and 8. Where µ
// binds (30 items here), duplicated users force the fused sweep: queries
// with equal seed sets group onto one subgraph. Results must be
// bit-identical to the single-user calls (each a group of one, swept
// alone) at every thread count, and the width observer must account for
// every served query exactly once.
TEST_F(BatchParityTest, FusedGroupingMatchesSingletonCallsAcrossThreads) {
  GraphWalkOptions capped;
  capped.max_subgraph_items = 30;
  std::vector<std::unique_ptr<Recommender>> suite = BuildSuite();
  for (auto& rec : BuildSuite(capped)) suite.push_back(std::move(rec));
  // 6 copies of a hot user + assorted singletons and smaller duplicate
  // runs, interleaved so grouping has to reorder, plus one bad user whose
  // failure must stay isolated inside its would-be group, then 23 more
  // distinct users.
  std::vector<UserId> pattern = {7, 3, 7, 12, 7, 3,  7, -1, 25,
                                 7, 3, 7, 30, 12, 3, 31, 32, 33};
  for (UserId u = 40; u < 63; ++u) pattern.push_back(u);
  const std::vector<ItemId> candidates = {2, 5, 9, 14, 21};
  std::vector<UserQuery> queries;
  for (UserId u : pattern) queries.push_back({u, 6, candidates});
  for (const auto& rec : suite) {
    // DPPR is in the parity suite but is not a graph-walk engine: it takes
    // the default per-query dispatch and never invokes the observer.
    const bool graph_engine =
        dynamic_cast<const GraphRecommenderBase*>(rec.get()) != nullptr;
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
      BatchOptions options;
      options.num_threads = threads;
      options.fused_width_observer = &observer;
      {
        std::lock_guard<std::mutex> lock(mu);
        widths.clear();
      }
      auto results = rec->QueryBatch(queries, options);
      ASSERT_EQ(results.size(), queries.size());
      const std::string label = rec->name() + " @" + std::to_string(threads) +
                                "t";
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
        continue;
      }
      // Every successfully served query rode exactly one dispatched sweep
      // of at most one 16-query slice, and with 6 copies of user 7 at least
      // one sweep must actually have fused.
      int64_t lanes = 0;
      for (int32_t w : widths) {
        lanes += w;
        EXPECT_GE(w, 1) << label;
        EXPECT_LE(w, 16) << label;
      }
      EXPECT_EQ(lanes, static_cast<int64_t>(served)) << label;
      EXPECT_GT(*std::max_element(widths.begin(), widths.end()), 1) << label;
      if (static_cast<const GraphRecommenderBase&>(*rec)
              .options()
              .max_subgraph_items != capped.max_subgraph_items) {
        // µ cannot cap the corpus: one payload group, 16-query slices.
        std::sort(widths.begin(), widths.end());
        EXPECT_EQ(widths, (std::vector<int32_t>{8, 16, 16})) << label;
      }
    }
  }
}

// Exact-solver configurations group queries the same way and solve each
// member on the shared subgraph; with duplicate users, at the default µ
// (one payload group) and where µ binds (groups of equal seed sets), every
// batch must equal the per-query calls, statuses included.
TEST_F(BatchParityTest, ExactSolverBatchMatchesSequential) {
  std::vector<UserId> users = TestUsers();
  for (UserId u = 0; u < 10; ++u) users.push_back(u);
  for (const int32_t mu : {6000, 30}) {
    GraphWalkOptions walk;
    walk.exact = true;
    walk.max_subgraph_items = mu;
    for (const auto& rec : BuildSuite(walk)) {
      // Every exact solve converges except HT's on the whole component:
      // there the Gauss–Seidel solve runs out of sweeps for these users (a
      // known solver defect). They are pinned so the defect stays visible
      // and any other failing solve fails this test.
      std::vector<UserId> known_unsolved;
      if (mu == 6000 && rec->name() == "HT") known_unsolved = {7, 30, 7};
      std::vector<Result<std::vector<ScoredItem>>> expected;
      std::vector<UserId> unsolved;
      for (UserId u : users) {
        expected.push_back(rec->RecommendTopK(u, 8));
        if (expected.back().ok()) continue;
        unsolved.push_back(u);
        EXPECT_EQ(expected.back().status().code(), StatusCode::kInternal)
            << rec->name() << " mu " << mu << " user " << u << ": "
            << expected.back().status().ToString();
      }
      EXPECT_EQ(unsolved, known_unsolved) << rec->name() << " mu " << mu;
      for (size_t threads : {1u, 4u}) {
        BatchOptions options;
        options.num_threads = threads;
        auto batch = rec->RecommendBatch(users, 8, options);
        const std::string label = rec->name() + " exact mu=" +
                                  std::to_string(mu) + " @" +
                                  std::to_string(threads) + "t";
        for (size_t i = 0; i < users.size(); ++i) {
          const std::string query = label + " query " + std::to_string(i);
          ASSERT_EQ(expected[i].status().ToString(),
                    batch[i].status().ToString())
              << query;
          if (expected[i].ok()) {
            ExpectIdenticalLists(*expected[i], *batch[i], query);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace longtail
