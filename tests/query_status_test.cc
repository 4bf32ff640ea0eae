// The single-user query contract of the graph walkers, as one table: for
// HT, AT, AC1 and AC2 — truncated and exact, with µ off (whole-component
// payload) and binding (fresh extraction) — every input row pins the
// status code, the message and the values RecommendTopK or ScoreItems
// return. Successful values are compared bit for bit with Algorithm 1
// assembled by hand from the graph layer's public pieces.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "graph/markov.h"
#include "test_util.h"

namespace longtail {
namespace {

using testing::kM1;
using testing::kM2;
using testing::kM4;
using testing::kU5;

// Figure 2 plus a disconnected pair (user 5 rates item 6) and a cold-start
// user 6 with no ratings.
constexpr UserId kPairUser = 5;
constexpr UserId kColdUser = 6;
constexpr ItemId kPairItem = 6;
constexpr UserId kNumUsers = 7;
constexpr ItemId kNumItems = 7;

Dataset MakeTableDataset() {
  std::vector<RatingEntry> ratings =
      testing::MakeFigure2Dataset().ToRatingList();
  ratings.push_back({kPairUser, kPairItem, 4.0f});
  auto data = Dataset::Create(kNumUsers, kNumItems, std::move(ratings));
  LT_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

std::unique_ptr<GraphRecommenderBase> MakeWalker(int algorithm,
                                                 GraphWalkOptions walk) {
  AbsorbingCostOptions ac;
  ac.walk = walk;
  ac.lda.num_topics = 2;
  ac.lda.iterations = 10;
  switch (algorithm) {
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

/// Algorithm 1 by hand: seeds → ExtractSubgraphInto → absorbing flags and
/// node costs → the kernel's ranking sweep (or the exact solve). Returns
/// one score per global item: the negated walk value, or kUnreachableScore
/// outside the subgraph or unreachable from the absorbing set.
std::vector<double> ManualScores(const GraphRecommenderBase& rec,
                                 const Dataset& data, UserId user) {
  const BipartiteGraph& g = rec.graph();
  const bool hitting =
      dynamic_cast<const HittingTimeRecommender*>(&rec) != nullptr;
  std::vector<NodeId> seeds = {g.UserNode(user)};
  if (!hitting) {
    for (ItemId item : data.UserItems(user)) seeds.push_back(g.ItemNode(item));
  }
  SubgraphOptions sub_options;
  sub_options.max_items = rec.options().max_subgraph_items;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, seeds, sub_options, &ws);
  const int32_t n = sub.graph.num_nodes();
  std::vector<bool> absorbing(n, false);
  if (hitting) {
    absorbing[sub.LocalUserNode(user)] = true;
  } else {
    for (ItemId item : data.UserItems(user)) {
      absorbing[sub.LocalItemNode(item)] = true;
    }
  }
  std::vector<double> costs(n, 1.0);
  if (const auto* ac = dynamic_cast<const AbsorbingCostRecommender*>(&rec)) {
    std::vector<double> entropy(sub.users.size());
    for (size_t lu = 0; lu < sub.users.size(); ++lu) {
      entropy[lu] = ac->user_entropy()[sub.users[lu]];
    }
    EntropyNodeCostsInto(sub.graph, entropy, ac->resolved_user_jump_cost(),
                         &costs);
  }
  std::vector<double> values;
  if (rec.options().exact) {
    SolverScratch scratch;
    const Status st = AbsorbingValueExactInto(
        sub.graph, absorbing, costs, rec.options().solver, &values, &scratch);
    LT_CHECK(st.ok()) << st.ToString();
  } else {
    WalkKernel kernel;
    kernel.BuildTransitions(sub.graph, WalkNormalization::kRowStochastic);
    kernel.CompileAbsorbingSweep(absorbing, costs);
    kernel.SweepTruncatedItemValues(rec.options().iterations, &values);
  }
  std::vector<double> scores(data.num_items(), kUnreachableScore);
  for (size_t li = 0; li < sub.items.size(); ++li) {
    const double value = values[sub.users.size() + li];
    if (std::isfinite(value)) scores[sub.items[li]] = -value;
  }
  return scores;
}

struct Row {
  const char* input;
  bool fitted;
  UserId user;
  /// RecommendTopK(user, k) when `score` is false, otherwise
  /// ScoreItems(user, candidates).
  bool score;
  int k;
  std::vector<ItemId> candidates;
  StatusCode code;
  /// The exact error message; unused for OK rows.
  const char* message;
};

const std::vector<Row>& Table() {
  static const std::vector<Row> rows = {
      {"k = 10", true, kU5, false, 10, {}, StatusCode::kOk, ""},
      {"k = 0", true, kU5, false, 0, {}, StatusCode::kOk, ""},
      {"k = -1", true, kU5, false, -1, {}, StatusCode::kOk, ""},
      {"candidates, one rated and one in another component",
       true, kU5, true, 0, {kM4, kPairItem, kM2, kM1}, StatusCode::kOk, ""},
      {"empty candidate list", true, kU5, true, 0, {}, StatusCode::kOk, ""},
      {"out-of-range candidate id", true, kU5, true, 0, {kM1, kNumItems},
       StatusCode::kOutOfRange, "candidate item id out of range"},
      {"negative candidate id", true, kU5, true, 0, {-1},
       StatusCode::kOutOfRange, "candidate item id out of range"},
      {"out-of-range user (top-k)", true, kNumUsers, false, 10, {},
       StatusCode::kOutOfRange, "user id 7 outside [0, 7)"},
      {"out-of-range user (scores)", true, -1, true, 0, {kM1},
       StatusCode::kOutOfRange, "user id -1 outside [0, 7)"},
      {"cold-start user (top-k)", true, kColdUser, false, 10, {},
       StatusCode::kFailedPrecondition, "user 6 has no ratings"},
      {"cold-start user (scores)", true, kColdUser, true, 0, {kM1},
       StatusCode::kFailedPrecondition, "user 6 has no ratings"},
      {"unfitted model (top-k)", false, kU5, false, 10, {},
       StatusCode::kFailedPrecondition,
       "recommender is not fitted; call Fit()"},
      {"unfitted model (scores)", false, kU5, true, 0, {kM1},
       StatusCode::kFailedPrecondition,
       "recommender is not fitted; call Fit()"},
  };
  return rows;
}

TEST(QueryStatusTable, SingleUserCallsReturnPinnedStatusesAndValues) {
  const Dataset data = MakeTableDataset();
  for (const bool exact : {false, true}) {
    for (const int32_t mu : {0, 3}) {
      GraphWalkOptions walk;
      walk.exact = exact;
      walk.max_subgraph_items = mu;
      for (int algorithm = 0; algorithm < 4; ++algorithm) {
        auto fitted = MakeWalker(algorithm, walk);
        auto unfitted = MakeWalker(algorithm, walk);
        ASSERT_TRUE(fitted->Fit(data).ok()) << fitted->name();
        const std::vector<double> manual = ManualScores(*fitted, data, kU5);
        for (const Row& row : Table()) {
          const GraphRecommenderBase& rec = row.fitted ? *fitted : *unfitted;
          const std::string label = rec.name() + (exact ? " exact" : "") +
                                    " mu=" + std::to_string(mu) + ": " +
                                    row.input;
          Status status;
          if (row.score) {
            auto scores = rec.ScoreItems(row.user, row.candidates);
            status = scores.status();
            if (scores.ok()) {
              std::vector<double> expected;
              for (ItemId item : row.candidates) {
                expected.push_back(manual[item]);
              }
              EXPECT_EQ(expected, *scores) << label;
            }
          } else {
            auto top = rec.RecommendTopK(row.user, row.k);
            status = top.status();
            if (top.ok()) {
              std::vector<ScoredItem> candidates;
              for (ItemId item = 0; item < data.num_items(); ++item) {
                if (manual[item] == kUnreachableScore ||
                    data.HasRating(row.user, item)) {
                  continue;
                }
                candidates.push_back({item, manual[item]});
              }
              const std::vector<ScoredItem> expected =
                  TopKScoredItems(std::move(candidates), row.k);
              ASSERT_EQ(expected.size(), top->size()) << label;
              for (size_t p = 0; p < expected.size(); ++p) {
                EXPECT_EQ(expected[p].item, (*top)[p].item) << label;
                EXPECT_EQ(expected[p].score, (*top)[p].score) << label;
              }
              if (row.k == 10) {
                EXPECT_FALSE(top->empty()) << label;
                // U5 rated M2 and M3 and cannot reach item 6: uncapped,
                // the other four items are its whole candidate set.
                if (mu == 0) EXPECT_EQ(top->size(), 4u) << label;
              }
            }
          }
          EXPECT_EQ(row.code, status.code()) << label << ": "
                                             << status.ToString();
          if (row.code != StatusCode::kOk) {
            EXPECT_EQ(row.message, status.message()) << label;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace longtail
