// SubgraphCache: the serving layer's shared LRU of extracted walk
// subgraphs. Two contracts are locked down here:
//  1. Parity — cached batch results are bit-identical to uncached walks for
//     all five suite algorithms (HT, AT, AC1, AC2, DPPR) at 1 and 8
//     threads, cold and warm.
//  2. Safety under load — concurrent lookups, inserts, evictions and
//     clears never corrupt an adopted subgraph (hammer test, TSan-friendly:
//     no sleeps, bounded loops, all-or-nothing assertions at the end).
#include "graph/subgraph_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/pagerank.h"
#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "test_util.h"

namespace longtail {
namespace {

class SubgraphCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 100;
    spec.num_items = 80;
    spec.mean_user_degree = 10;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 20121;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// The five walk/graph algorithms named by the parity requirement.
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

  static std::vector<UserQuery> TestQueries(
      const std::vector<ItemId>& candidates) {
    std::vector<UserQuery> queries;
    for (UserId u = 0; u < std::min<UserId>(40, data_->num_users()); ++u) {
      UserQuery q;
      q.user = u;
      q.top_k = 10;
      q.score_items = candidates;
      queries.push_back(q);
    }
    return queries;
  }

  static Dataset* data_;
};

Dataset* SubgraphCacheTest::data_ = nullptr;

void ExpectIdenticalResults(const std::vector<UserQueryResult>& expected,
                            const std::vector<UserQueryResult>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].status.ok(), actual[i].status.ok())
        << label << " query " << i;
    ASSERT_EQ(expected[i].top_k.size(), actual[i].top_k.size())
        << label << " query " << i;
    for (size_t k = 0; k < expected[i].top_k.size(); ++k) {
      EXPECT_EQ(expected[i].top_k[k].item, actual[i].top_k[k].item)
          << label << " query " << i << " pos " << k;
      // Bit-identical, not approximately equal: a cache hit must replay
      // the exact same walk.
      EXPECT_EQ(expected[i].top_k[k].score, actual[i].top_k[k].score)
          << label << " query " << i << " pos " << k;
    }
    EXPECT_EQ(expected[i].scores, actual[i].scores) << label << " query " << i;
  }
}

// Parity for all five algorithms at 1 and 8 threads: cold pass (all
// misses + inserts) and warm pass (hits) must both be bit-identical to the
// uncached batch.
TEST_F(SubgraphCacheTest, CachedBatchesAreBitIdenticalToUncached) {
  const std::vector<ItemId> candidates = {0, 3, 7, 11, 19, 42};
  const std::vector<UserQuery> queries = TestQueries(candidates);
  for (const auto& rec : BuildSuite()) {
    BatchOptions uncached;
    uncached.num_threads = 1;
    const std::vector<UserQueryResult> expected =
        rec->QueryBatch(queries, uncached);
    for (size_t threads : {1u, 8u}) {
      SubgraphCache cache;
      BatchOptions cached;
      cached.num_threads = threads;
      cached.subgraph_cache = &cache;
      const auto cold = rec->QueryBatch(queries, cached);
      ExpectIdenticalResults(expected, cold,
                             rec->name() + " cold@" +
                                 std::to_string(threads) + "t");
      const auto warm = rec->QueryBatch(queries, cached);
      ExpectIdenticalResults(expected, warm,
                             rec->name() + " warm@" +
                                 std::to_string(threads) + "t");
      const SubgraphCacheStats stats = cache.Stats();
      if (rec->name() == "DPPR") {
        // Not a subgraph walker: must ignore the cache entirely.
        EXPECT_EQ(stats.hits + stats.misses, 0u) << rec->name();
      } else {
        // The warm pass serves every query from cache.
        EXPECT_GE(stats.hits, queries.size()) << rec->name();
        EXPECT_GE(stats.inserts, 1u) << rec->name();
      }
    }
  }
}

// AT and AC1/AC2 share seed sets (user + rated items) and are fitted on
// the same dataset, so one cache serves all three: after AT fills it, an
// AC1 batch is all hits — extraction work is shared across recommenders.
TEST_F(SubgraphCacheTest, ExtractionsAreSharedAcrossRecommenders) {
  AbsorbingTimeRecommender at;
  ASSERT_TRUE(at.Fit(*data_).ok());
  AbsorbingCostOptions ac_options;
  ac_options.lda.num_topics = 4;
  ac_options.lda.iterations = 15;
  AbsorbingCostRecommender ac1(EntropySource::kItemBased, ac_options);
  ASSERT_TRUE(ac1.Fit(*data_).ok());
  ASSERT_EQ(at.graph().fingerprint(), ac1.graph().fingerprint());

  const std::vector<UserQuery> queries = TestQueries({});
  SubgraphCache cache;
  BatchOptions options;
  options.num_threads = 1;
  options.subgraph_cache = &cache;
  at.QueryBatch(queries, options);
  const uint64_t misses_after_at = cache.Stats().misses;
  EXPECT_EQ(misses_after_at, queries.size());

  BatchOptions uncached;
  uncached.num_threads = 1;
  const auto expected = ac1.QueryBatch(queries, uncached);
  const auto actual = ac1.QueryBatch(queries, options);
  ExpectIdenticalResults(expected, actual, "AC1 over AT's cache");
  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, misses_after_at);  // no new extraction
  EXPECT_EQ(stats.hits, queries.size());
}

// HT seeds differ from AT seeds for the same user (query-user node vs.
// user + S_q), so the two must never share entries even on one dataset.
TEST_F(SubgraphCacheTest, DifferentSeedSetsNeverCollide) {
  HittingTimeRecommender ht;
  AbsorbingTimeRecommender at;
  ASSERT_TRUE(ht.Fit(*data_).ok());
  ASSERT_TRUE(at.Fit(*data_).ok());
  const std::vector<UserQuery> queries = TestQueries({});
  SubgraphCache cache;
  BatchOptions options;
  options.num_threads = 1;
  options.subgraph_cache = &cache;
  at.QueryBatch(queries, options);
  BatchOptions uncached;
  uncached.num_threads = 1;
  const auto expected = ht.QueryBatch(queries, uncached);
  const auto actual = ht.QueryBatch(queries, options);
  ExpectIdenticalResults(expected, actual, "HT after AT");
  // HT found none of AT's entries.
  EXPECT_EQ(cache.Stats().misses, 2 * queries.size());
}

// ---------------------------------------------------------------- LRU core

/// Extracts the subgraph seeded at `user` into `ws` and returns its key.
uint64_t ExtractAndKey(const BipartiteGraph& g, UserId user,
                       const SubgraphOptions& options, WalkWorkspace* ws) {
  const std::vector<NodeId> seeds = {g.UserNode(user)};
  ExtractSubgraphInto(g, seeds, options, ws);
  return SubgraphCache::Key(g.fingerprint(), seeds, options);
}

TEST(SubgraphCacheLruTest, EvictsLeastRecentlyUsedFirst) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  SubgraphCacheOptions cache_options;
  cache_options.max_entries = 2;
  cache_options.num_shards = 1;
  SubgraphCache cache(cache_options);
  const SubgraphOptions sub_options;
  WalkWorkspace ws;

  const std::vector<NodeId> s0 = {g.UserNode(0)};
  const std::vector<NodeId> s1 = {g.UserNode(1)};
  const std::vector<NodeId> s2 = {g.UserNode(2)};
  const uint64_t k0 = SubgraphCache::Key(g.fingerprint(), s0, sub_options);
  const uint64_t k1 = SubgraphCache::Key(g.fingerprint(), s1, sub_options);
  const uint64_t k2 = SubgraphCache::Key(g.fingerprint(), s2, sub_options);

  ExtractSubgraphInto(g, s0, sub_options, &ws);
  cache.Insert(k0, g.fingerprint(), s0, sub_options, ws);
  ExtractSubgraphInto(g, s1, sub_options, &ws);
  cache.Insert(k1, g.fingerprint(), s1, sub_options, ws);
  EXPECT_EQ(cache.Stats().entries, 2u);

  // Touch k0 so k1 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(k0, g, s0, sub_options, &ws));
  ExtractSubgraphInto(g, s2, sub_options, &ws);
  cache.Insert(k2, g.fingerprint(), s2, sub_options, ws);

  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.Lookup(k0, g, s0, sub_options, &ws));
  EXPECT_FALSE(cache.Lookup(k1, g, s1, sub_options, &ws));
  EXPECT_TRUE(cache.Lookup(k2, g, s2, sub_options, &ws));
}

TEST(SubgraphCacheLruTest, AdoptedSubgraphMatchesFreshExtraction) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  SubgraphCache cache;
  const SubgraphOptions sub_options;

  const std::vector<NodeId> seeds = {g.UserNode(1)};
  WalkWorkspace fresh;
  const uint64_t key = ExtractAndKey(g, 1, sub_options, &fresh);
  cache.Insert(key, g.fingerprint(), seeds, sub_options, fresh);

  WalkWorkspace adopted;
  // Overwrite the adopting workspace with another query first, so stale
  // mappings must be invalidated by the adoption.
  ExtractAndKey(g, 3, sub_options, &adopted);
  ASSERT_TRUE(cache.Lookup(key, g, seeds, sub_options, &adopted));

  const Subgraph& a = fresh.sub();
  const Subgraph& b = adopted.sub();
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.items, b.items);
  ASSERT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (NodeId v = 0; v < a.graph.num_nodes(); ++v) {
    const auto an = a.graph.Neighbors(v);
    const auto bn = b.graph.Neighbors(v);
    ASSERT_EQ(an.size(), bn.size()) << "node " << v;
    for (size_t e = 0; e < an.size(); ++e) {
      EXPECT_EQ(an[e], bn[e]);
      EXPECT_EQ(a.graph.Weights(v)[e], b.graph.Weights(v)[e]);
    }
    EXPECT_EQ(a.graph.WeightedDegree(v), b.graph.WeightedDegree(v));
  }
  // Reverse lookups answer through the adopting workspace's tables.
  for (size_t lu = 0; lu < b.users.size(); ++lu) {
    EXPECT_EQ(b.LocalUserNode(b.users[lu]), static_cast<NodeId>(lu));
  }
  for (size_t li = 0; li < b.items.size(); ++li) {
    EXPECT_EQ(b.LocalItemNode(b.items[li]),
              static_cast<NodeId>(b.users.size() + li));
  }
  // Nodes outside the adopted subgraph — including ones only present in
  // the overwritten query — resolve to -1.
  for (UserId u = 0; u < data.num_users(); ++u) {
    bool inside = false;
    for (UserId su : b.users) inside |= (su == u);
    if (!inside) EXPECT_EQ(b.LocalUserNode(u), -1) << u;
  }
}

TEST(SubgraphCacheLruTest, KeyDependsOnEveryInput) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  const std::vector<NodeId> seeds = {g.UserNode(0), g.ItemNode(1)};
  SubgraphOptions options;
  const uint64_t base = SubgraphCache::Key(g.fingerprint(), seeds, options);
  EXPECT_EQ(base, SubgraphCache::Key(g.fingerprint(), seeds, options));

  SubgraphOptions other_mu = options;
  other_mu.max_items = 3;
  EXPECT_NE(base, SubgraphCache::Key(g.fingerprint(), seeds, other_mu));
  const std::vector<NodeId> reordered = {g.ItemNode(1), g.UserNode(0)};
  EXPECT_NE(base, SubgraphCache::Key(g.fingerprint(), reordered, options));
  EXPECT_NE(base, SubgraphCache::Key(g.fingerprint() + 1, seeds, options));

  // The unweighted graph has different content, hence a different
  // fingerprint and key space.
  const BipartiteGraph unweighted =
      BipartiteGraph::FromDataset(data, /*weighted=*/false);
  EXPECT_NE(g.fingerprint(), unweighted.fingerprint());
}

TEST(SubgraphCacheLruTest, ClearDropsEntriesAndCounters) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  SubgraphCache cache;
  const SubgraphOptions sub_options;
  WalkWorkspace ws;
  const std::vector<NodeId> seeds = {g.UserNode(0)};
  const uint64_t key = ExtractAndKey(g, 0, sub_options, &ws);
  cache.Insert(key, g.fingerprint(), seeds, sub_options, ws);
  ASSERT_TRUE(cache.Lookup(key, g, seeds, sub_options, &ws));
  EXPECT_GT(cache.Stats().resident_bytes, 0u);
  cache.Clear();
  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_FALSE(cache.Lookup(key, g, seeds, sub_options, &ws));
}

TEST(SubgraphCacheLruTest, ByteBudgetEvicts) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  SubgraphCacheOptions cache_options;
  cache_options.max_entries = 64;
  cache_options.num_shards = 1;
  cache_options.max_bytes = 1;  // Absurdly small: every insert overflows.
  SubgraphCache cache(cache_options);
  const SubgraphOptions sub_options;
  WalkWorkspace ws;
  for (UserId u = 0; u < 4; ++u) {
    const std::vector<NodeId> seeds = {g.UserNode(u)};
    const uint64_t key = ExtractAndKey(g, u, sub_options, &ws);
    cache.Insert(key, g.fingerprint(), seeds, sub_options, ws);
  }
  // The budget keeps at most one resident entry (never evicts below one).
  EXPECT_LE(cache.Stats().entries, 1u);
  EXPECT_GE(cache.Stats().evictions, 3u);
}

// ------------------------------------------------------------- hammer test

// Concurrent lookups, inserts and evictions on a cache sized far below the
// working set, plus periodic Clear() calls. Every adopted subgraph must
// match a fresh extraction for its seeds — eviction or clearing can cost a
// hit but can never corrupt a result.
TEST(SubgraphCacheHammerTest, ConcurrentLookupInsertEvictClear) {
  SyntheticSpec spec;
  spec.num_users = 64;
  spec.num_items = 48;
  spec.mean_user_degree = 8;
  spec.min_user_degree = 2;
  spec.num_genres = 4;
  spec.seed = 777;
  auto generated = GenerateSyntheticData(spec);
  ASSERT_TRUE(generated.ok());
  const Dataset data = std::move(generated).value().dataset;
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);

  SubgraphCacheOptions cache_options;
  cache_options.max_entries = 8;  // working set is 64 users → constant churn
  cache_options.num_shards = 2;
  SubgraphCache cache(cache_options);
  const SubgraphOptions sub_options;

  // Reference extractions, one per user, computed serially up front.
  std::vector<std::vector<UserId>> expected_users(data.num_users());
  std::vector<std::vector<ItemId>> expected_items(data.num_users());
  {
    WalkWorkspace ws;
    for (UserId u = 0; u < data.num_users(); ++u) {
      ExtractSubgraphInto(g, {g.UserNode(u)}, sub_options, &ws);
      expected_users[u] = ws.sub().users;
      expected_items[u] = ws.sub().items;
    }
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> corruptions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WalkWorkspace ws;
      for (int i = 0; i < kItersPerThread; ++i) {
        // Threads sweep the user space with different strides so lookups,
        // inserts and evictions interleave on the same shards.
        const UserId u = static_cast<UserId>((i * (2 * t + 1) + t * 7) %
                                             data.num_users());
        const std::vector<NodeId> seeds = {g.UserNode(u)};
        const uint64_t key =
            SubgraphCache::Key(g.fingerprint(), seeds, sub_options);
        if (!cache.Lookup(key, g, seeds, sub_options, &ws)) {
          ExtractSubgraphInto(g, seeds, sub_options, &ws);
          cache.Insert(key, g.fingerprint(), seeds, sub_options, ws);
        }
        if (ws.sub().users != expected_users[u] ||
            ws.sub().items != expected_items[u]) {
          corruptions.fetch_add(1);
        }
        if (t == 0 && i % 101 == 100) cache.Clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corruptions.load(), 0);

  const SubgraphCacheStats stats = cache.Stats();
  // Post-Clear counters still reflect the final stretch; the structural
  // invariants must hold regardless of interleaving.
  EXPECT_LE(stats.entries, 8u);
}

// ---------------------------------------------------------- single flight

// Deterministic coalescing proof: the leader is held open (test hook)
// until the other N-1 threads have registered as waiters behind its
// in-flight ticket, so exactly one extraction runs, every duplicate
// adopts the leader's payload, and none of them touches the LRU.
TEST(SubgraphCacheSingleFlightTest, WaitersAdoptTheLeadersExtraction) {
  const Dataset data = testing::MakeFigure2Dataset();
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);
  SubgraphCache cache;
  const SubgraphOptions sub_options;
  const std::vector<NodeId> seeds = {g.UserNode(1), g.ItemNode(0)};
  constexpr int kThreads = 4;
  cache.SetLeaderExtractHookForTesting([&cache] {
    // Spin (no sleeps) until every other thread is a registered waiter;
    // waiters count themselves *before* blocking on the ticket.
    while (cache.Stats().coalesced_waits <
           static_cast<uint64_t>(kThreads - 1)) {
      std::this_thread::yield();
    }
  });

  WalkWorkspace reference;
  ExtractSubgraphInto(g, seeds, sub_options, &reference);
  const std::vector<UserId> want_users = reference.sub().users;
  const std::vector<ItemId> want_items = reference.sub().items;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      WalkWorkspace ws;
      cache.GetOrExtract(g, seeds, sub_options, &ws);
      if (ws.sub().users != want_users || ws.sub().items != want_items) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u) << "a duplicate extraction ran";
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.coalesced_waits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.hits, 0u);

  // The published entry is a normal LRU resident afterwards.
  WalkWorkspace late;
  cache.GetOrExtract(g, seeds, sub_options, &late);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(late.sub().users, want_users);
  EXPECT_EQ(late.sub().items, want_items);
}

// GetOrExtract under churn: hot keys, a cache far below the working set
// (constant eviction), and periodic Clear() calls — adopted subgraphs must
// always match a fresh extraction, and total extractions for a key never
// exceed what misses report.
TEST(SubgraphCacheHammerTest, ConcurrentGetOrExtractEvictClear) {
  SyntheticSpec spec;
  spec.num_users = 48;
  spec.num_items = 40;
  spec.mean_user_degree = 7;
  spec.min_user_degree = 2;
  spec.num_genres = 4;
  spec.seed = 778;
  auto generated = GenerateSyntheticData(spec);
  ASSERT_TRUE(generated.ok());
  const Dataset data = std::move(generated).value().dataset;
  const BipartiteGraph g = BipartiteGraph::FromDataset(data);

  SubgraphCacheOptions cache_options;
  cache_options.max_entries = 6;
  cache_options.num_shards = 2;
  SubgraphCache cache(cache_options);
  const SubgraphOptions sub_options;

  std::vector<std::vector<UserId>> expected_users(data.num_users());
  std::vector<std::vector<ItemId>> expected_items(data.num_users());
  {
    WalkWorkspace ws;
    for (UserId u = 0; u < data.num_users(); ++u) {
      ExtractSubgraphInto(g, {g.UserNode(u)}, sub_options, &ws);
      expected_users[u] = ws.sub().users;
      expected_items[u] = ws.sub().items;
    }
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 300;
  std::atomic<int> corruptions{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WalkWorkspace ws;
      for (int i = 0; i < kItersPerThread; ++i) {
        // A small hot set maximizes identical concurrent misses (the
        // single-flight path) while evictions churn the residents.
        const UserId u = static_cast<UserId>((i + t) % 12);
        const std::vector<NodeId> seeds = {g.UserNode(u)};
        cache.GetOrExtract(g, seeds, sub_options, &ws);
        if (ws.sub().users != expected_users[u] ||
            ws.sub().items != expected_items[u]) {
          corruptions.fetch_add(1);
        }
        if (t == 0 && i % 97 == 96) cache.Clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corruptions.load(), 0);
  EXPECT_LE(cache.Stats().entries, 6u);
}

}  // namespace
}  // namespace longtail
