// Whole-component walks. When µ cannot cap a user's subgraph (µ <= 0, or
// the user's component holds at most µ items) the subgraph is the whole
// component, whatever the seeds, and the graph walkers serve it from a
// payload extracted once at Fit/LoadModel. Three contracts:
//  1. Parity — HT, AT, AC1 and AC2 at µ = 0 (a connected corpus and a
//     two-component one), and with µ binding on only one of the two
//     components, return bit-identical results on every delivery path:
//     RecommendTopK/ScoreItems (a group of one), QueryBatch at 1 and 8
//     threads with and without a SubgraphCache (40 queries of one
//     component at µ = 0, so fused slices of 16, 16 and 8, and duplicate
//     users), a hand-assembled ExtractSubgraphInto + BuildTransitions
//     pipeline, and a checkpoint round-trip (LoadModel rebuilds the
//     payloads).
//  2. Fusion — distinct users of one component share fused sweeps.
//  3. Cache bypass — payload-served queries never touch the cache, while
//     queries in a component where µ binds still extract through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/markov.h"
#include "graph/subgraph_cache.h"
#include "serving/model_registry.h"
#include "util/logging.h"

namespace longtail {
namespace {

Dataset Generate(int32_t num_users, int32_t num_items, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.mean_user_degree = 10;
  spec.min_user_degree = 3;
  spec.num_genres = 5;
  spec.seed = seed;
  auto data = GenerateSyntheticData(spec);
  LT_CHECK(data.ok());
  return std::move(data).value().dataset;
}

/// Two corpora side by side with no rating between them: users [0, 60)
/// rate items [0, 50), users [60, 100) rate items [50, 80).
Dataset TwoComponents() {
  const Dataset a = Generate(60, 50, 7101);
  const Dataset b = Generate(40, 30, 7102);
  std::vector<RatingEntry> ratings = a.ToRatingList();
  for (RatingEntry r : b.ToRatingList()) {
    r.user += a.num_users();
    r.item += a.num_items();
    ratings.push_back(r);
  }
  auto data = Dataset::Create(a.num_users() + b.num_users(),
                              a.num_items() + b.num_items(),
                              std::move(ratings));
  LT_CHECK(data.ok());
  return std::move(data).value();
}

class ComponentWalkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    connected_ = new Dataset(Generate(100, 80, 4242));
    two_components_ = new Dataset(TwoComponents());
  }
  static void TearDownTestSuite() {
    delete connected_;
    delete two_components_;
    connected_ = nullptr;
    two_components_ = nullptr;
  }

  /// HT, AT, AC1 and AC2 at µ = `mu`, fitted on `data`.
  static std::vector<std::unique_ptr<GraphRecommenderBase>> FitWalkers(
      const Dataset& data, int32_t mu) {
    GraphWalkOptions walk;
    walk.max_subgraph_items = mu;
    AbsorbingCostOptions ac;
    ac.walk = walk;
    ac.lda.num_topics = 4;
    ac.lda.iterations = 15;
    std::vector<std::unique_ptr<GraphRecommenderBase>> walkers;
    walkers.push_back(std::make_unique<HittingTimeRecommender>(walk));
    walkers.push_back(std::make_unique<AbsorbingTimeRecommender>(walk));
    walkers.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kItemBased, ac));
    walkers.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kTopicBased, ac));
    for (auto& rec : walkers) {
      EXPECT_TRUE(rec->Fit(data).ok()) << rec->name();
    }
    return walkers;
  }

  static Dataset* connected_;
  static Dataset* two_components_;
};

Dataset* ComponentWalkTest::connected_ = nullptr;
Dataset* ComponentWalkTest::two_components_ = nullptr;

/// Algorithm 1 assembled by hand from public pieces — a fresh extraction
/// and a private transition build, never a payload — as bench/e2e's
/// decomposed pipeline does.
std::vector<ScoredItem> ManualTopK(const GraphRecommenderBase& rec,
                                   const Dataset& data, UserId user, int k) {
  const BipartiteGraph& g = rec.graph();
  const bool hitting =
      dynamic_cast<const HittingTimeRecommender*>(&rec) != nullptr;
  std::vector<NodeId> seeds = {g.UserNode(user)};
  if (!hitting) {
    for (ItemId item : data.UserItems(user)) seeds.push_back(g.ItemNode(item));
  }
  SubgraphOptions options;
  options.max_items = rec.options().max_subgraph_items;
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, seeds, options, &ws);
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
  WalkKernel kernel;
  kernel.BuildTransitions(sub.graph, WalkNormalization::kRowStochastic);
  kernel.CompileAbsorbingSweep(absorbing, costs);
  std::vector<double> values;
  kernel.SweepTruncatedItemValues(rec.options().iterations, &values);
  std::vector<ScoredItem> candidates;
  for (size_t li = 0; li < sub.items.size(); ++li) {
    const ItemId item = sub.items[li];
    const double value = values[sub.users.size() + li];
    if (data.HasRating(user, item) || !std::isfinite(value)) continue;
    candidates.push_back({item, -value});
  }
  return TopKScoredItems(std::move(candidates), k);
}

void ExpectSameResult(const UserQueryResult& expected,
                      const UserQueryResult& actual, const std::string& label) {
  ASSERT_TRUE(actual.status.ok()) << label << ": " << actual.status.ToString();
  ASSERT_EQ(expected.top_k.size(), actual.top_k.size()) << label;
  for (size_t k = 0; k < expected.top_k.size(); ++k) {
    EXPECT_EQ(expected.top_k[k].item, actual.top_k[k].item)
        << label << " pos " << k;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(expected.top_k[k].score, actual.top_k[k].score)
        << label << " pos " << k;
  }
  EXPECT_EQ(expected.scores, actual.scores) << label;
}

void ExpectSameResults(const std::vector<UserQueryResult>& expected,
                       const std::vector<UserQueryResult>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameResult(expected[i], actual[i],
                     label + " query " + std::to_string(i));
  }
}

TEST_F(ComponentWalkTest, EveryDeliveryPathIsBitIdentical) {
  const struct {
    const char* name;
    const Dataset* data;
    int32_t mu;
  } corpora[] = {
      {"connected mu=0", connected_, 0},
      {"two components mu=0", two_components_, 0},
      // µ binds on the 50-item component only.
      {"two components mu=40", two_components_, 40},
  };
  const std::vector<ItemId> candidates = {1, 4, 9, 33, 52, 61, 77};
  for (const auto& corpus : corpora) {
    // Every third user, then the first six again: 40 queries on the
    // connected corpus.
    std::vector<UserQuery> queries;
    for (UserId u = 0; u < corpus.data->num_users(); u += 3) {
      queries.push_back({u, 8, candidates});
    }
    for (UserId u = 0; u < 18; u += 3) queries.push_back({u, 8, candidates});
    if (corpus.data == connected_) ASSERT_EQ(queries.size(), 40u);
    for (const auto& rec : FitWalkers(*corpus.data, corpus.mu)) {
      const std::string label = rec->name() + " " + corpus.name;
      std::vector<UserQueryResult> expected(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        auto top = rec->RecommendTopK(queries[i].user, 8);
        auto scores = rec->ScoreItems(queries[i].user, candidates);
        ASSERT_TRUE(top.ok() && scores.ok()) << label;
        expected[i].top_k = std::move(top).value();
        expected[i].scores = std::move(scores).value();
        UserQueryResult manual;
        manual.top_k = ManualTopK(*rec, *corpus.data, queries[i].user, 8);
        manual.scores = expected[i].scores;
        ExpectSameResult(manual, expected[i], label + " manual pipeline");
      }
      for (size_t threads : {1u, 8u}) {
        for (bool cached : {false, true}) {
          std::mutex mu;
          std::vector<int32_t> widths;
          const std::function<void(int32_t)> observer = [&](int32_t width) {
            std::lock_guard<std::mutex> lock(mu);
            widths.push_back(width);
          };
          SubgraphCache cache;
          BatchOptions options;
          options.num_threads = threads;
          options.subgraph_cache = cached ? &cache : nullptr;
          options.fused_width_observer = &observer;
          ExpectSameResults(expected, rec->QueryBatch(queries, options),
                            label + " @" + std::to_string(threads) + "t" +
                                (cached ? " cached" : ""));
          if (corpus.data == connected_) {
            // One payload group, 16-query slices, each one fused sweep.
            std::sort(widths.begin(), widths.end());
            EXPECT_EQ(widths, (std::vector<int32_t>{8, 16, 16})) << label;
          }
        }
      }
      const std::string path =
          ::testing::TempDir() + "/component_walk_" + rec->name() + ".ckpt";
      ASSERT_TRUE(SaveModelCheckpoint(*rec, path).ok()) << label;
      auto loaded = LoadModelCheckpoint(path, *corpus.data);
      std::remove(path.c_str());
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
      BatchOptions options;
      options.num_threads = 8;
      ExpectSameResults(expected, (*loaded)->QueryBatch(queries, options),
                        label + " after checkpoint round-trip");
    }
  }
}

// 64 distinct users of one component have 64 distinct seed sets, yet they
// walk one subgraph: they fuse into sweeps at the probed width cap, and the
// cache is never consulted — before or after a checkpoint round-trip.
TEST_F(ComponentWalkTest, DistinctUsersFuseOnTheirComponent) {
  GraphWalkOptions walk;
  walk.max_subgraph_items = 0;
  AbsorbingTimeRecommender at(walk);
  ASSERT_TRUE(at.Fit(*connected_).ok());
  WalkWorkspace ws;
  const Subgraph& component = ExtractSubgraphInto(
      at.graph(), {at.graph().UserNode(0)}, {.max_items = 0}, &ws);
  ASSERT_EQ(component.users.size(),
            static_cast<size_t>(connected_->num_users()))
      << "the fixture corpus must be connected";
  const int32_t cap = WalkKernel::FusedWidthCap(component.graph.num_nodes());

  std::vector<UserQuery> queries;
  for (UserId u = 0; u < 64; ++u) queries.push_back({u, 10, {}});
  const std::string path = ::testing::TempDir() + "/component_walk_at.ckpt";
  ASSERT_TRUE(SaveModelCheckpoint(at, path).ok());
  auto loaded = LoadModelCheckpoint(path, *connected_);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const Recommender* rec : {static_cast<const Recommender*>(&at),
                                 static_cast<const Recommender*>(
                                     loaded->get())}) {
    std::mutex mu;
    std::vector<int32_t> widths;
    const std::function<void(int32_t)> observer = [&](int32_t width) {
      std::lock_guard<std::mutex> lock(mu);
      widths.push_back(width);
    };
    SubgraphCache cache;
    BatchOptions options;
    options.num_threads = 8;
    options.subgraph_cache = &cache;
    options.fused_width_observer = &observer;
    for (const UserQueryResult& r : rec->QueryBatch(queries, options)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    int32_t lanes = 0;
    for (int32_t w : widths) lanes += w;
    EXPECT_EQ(lanes, 64);
    EXPECT_EQ(*std::max_element(widths.begin(), widths.end()), cap);
    EXPECT_EQ(widths.size(), static_cast<size_t>((64 + cap - 1) / cap));
    const SubgraphCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  }
}

// With µ binding on one of two components, its users extract through the
// cache (one miss and one insert per distinct seed set) while the other
// component's users walk its payload without a lookup.
TEST_F(ComponentWalkTest, CacheServesOnlyComponentsWhereMuBinds) {
  GraphWalkOptions walk;
  walk.max_subgraph_items = 40;
  AbsorbingTimeRecommender at(walk);
  ASSERT_TRUE(at.Fit(*two_components_).ok());
  std::vector<UserQuery> queries;
  uint64_t capped_users = 0;
  for (UserId u = 0; u < two_components_->num_users(); u += 2) {
    queries.push_back({u, 5, {}});
    if (u < 60) ++capped_users;
  }
  SubgraphCache cache;
  BatchOptions options;
  options.num_threads = 1;
  options.subgraph_cache = &cache;
  for (const UserQueryResult& r : at.QueryBatch(queries, options)) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, capped_users);
  EXPECT_EQ(stats.inserts, capped_users);
  EXPECT_EQ(stats.hits, 0u);
}

}  // namespace
}  // namespace longtail
