// google-benchmark microbenchmarks of the computational kernels behind the
// reproduction: BFS subgraph extraction, the truncated absorbing-time DP,
// one collapsed-Gibbs sweep, randomized SVD, one PPR power iteration, and
// entropy computation.
#include <benchmark/benchmark.h>

#include "util/logging.h"

#include "baselines/pagerank.h"
#include "core/absorbing_time.h"
#include "core/entropy.h"
#include "data/generator.h"
#include "graph/walk_kernel.h"
#include "bench/synthetic_walk_graph.h"
#include "graph/subgraph.h"
#include "linalg/svd.h"
#include "topics/lda.h"

namespace longtail {
namespace {

const SyntheticData& Corpus() {
  static const SyntheticData* corpus = [] {
    auto data = GenerateSyntheticData(SyntheticSpec::MovieLensLike(0.15));
    LT_CHECK(data.ok());
    return new SyntheticData(std::move(data).value());
  }();
  return *corpus;
}

const BipartiteGraph& Graph() {
  static const BipartiteGraph* graph =
      new BipartiteGraph(BipartiteGraph::FromDataset(Corpus().dataset));
  return *graph;
}

// BFS extraction through a reused WalkWorkspace: no global-sized lookup
// tables are allocated per query, which is the batch engine's steady state.
void BM_BfsSubgraphWorkspace(benchmark::State& state) {
  const BipartiteGraph& g = Graph();
  SubgraphOptions options;
  options.max_items = static_cast<int32_t>(state.range(0));
  WalkWorkspace workspace;
  std::vector<NodeId> seeds(1);
  UserId user = 0;
  for (auto _ : state) {
    seeds[0] = g.UserNode(user);
    const Subgraph& sub = ExtractSubgraphInto(g, seeds, options, &workspace);
    benchmark::DoNotOptimize(sub.items.size());
    user = (user + 1) % g.num_users();
  }
}
BENCHMARK(BM_BfsSubgraphWorkspace)->Arg(100)->Arg(500)->Arg(0);

void BM_AbsorbingTimeTruncated(benchmark::State& state) {
  const BipartiteGraph& g = Graph();
  std::vector<bool> absorbing(g.num_nodes(), false);
  const auto items = Corpus().dataset.UserItems(0);
  for (ItemId i : items) absorbing[g.ItemNode(i)] = true;
  const std::vector<double> unit(g.num_nodes(), 1.0);
  const int tau = static_cast<int>(state.range(0));
  WalkKernel kernel;
  std::vector<double> values;
  std::vector<double> scratch;
  for (auto _ : state) {
    kernel.BuildTransitions(g, WalkNormalization::kRowStochastic);
    kernel.CompileAbsorbingSweep(absorbing, unit);
    kernel.SweepTruncated(tau, &values, &scratch);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * tau * g.num_edges() * 2);
}
BENCHMARK(BM_AbsorbingTimeTruncated)->Arg(5)->Arg(15)->Arg(30);

void BM_GibbsSweep(benchmark::State& state) {
  LdaOptions options;
  options.num_topics = static_cast<int>(state.range(0));
  options.iterations = 1;
  for (auto _ : state) {
    auto model = LdaModel::Train(Corpus().dataset, options);
    benchmark::DoNotOptimize(model.ok());
  }
}
BENCHMARK(BM_GibbsSweep)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_RandomizedSvd(benchmark::State& state) {
  const Dataset& d = Corpus().dataset;
  std::vector<Triplet> triplets;
  for (UserId u = 0; u < d.num_users(); ++u) {
    const auto items = d.UserItems(u);
    const auto values = d.UserValues(u);
    for (size_t k = 0; k < items.size(); ++k) {
      triplets.push_back({u, items[k], static_cast<double>(values[k])});
    }
  }
  auto r = CsrMatrix::FromTriplets(d.num_users(), d.num_items(),
                                   std::move(triplets));
  LT_CHECK(r.ok());
  SvdOptions options;
  options.rank = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto svd = RandomizedSvd(*r, options);
    benchmark::DoNotOptimize(svd.ok());
  }
}
BENCHMARK(BM_RandomizedSvd)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_PprQuery(benchmark::State& state) {
  static PageRankRecommender* rec = [] {
    auto* r = new PageRankRecommender(/*discounted=*/true);
    LT_CHECK_OK(r->Fit(Corpus().dataset));
    return r;
  }();
  UserId user = 0;
  for (auto _ : state) {
    auto ppr = rec->ComputePpr(user);
    benchmark::DoNotOptimize(ppr.ok());
    user = (user + 1) % Corpus().dataset.num_users();
  }
}
BENCHMARK(BM_PprQuery)->Unit(benchmark::kMillisecond);

// End-to-end batched queries through the engine (workspace-reused walks on
// the thread pool). Arg = worker threads; compare users/sec across args and
// against BM_PprQuery-style single queries for the Table 5 story.
void BM_BatchRecommend(benchmark::State& state) {
  static AbsorbingTimeRecommender* rec = [] {
    auto* r = new AbsorbingTimeRecommender();
    LT_CHECK_OK(r->Fit(Corpus().dataset));
    return r;
  }();
  const int num_users =
      std::min<int>(64, Corpus().dataset.num_users());
  std::vector<UserId> users(num_users);
  for (int u = 0; u < num_users; ++u) users[u] = u;
  BatchOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto lists = rec->RecommendBatch(users, 10, options);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() * num_users);
}
BENCHMARK(BM_BatchRecommend)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Walk-kernel sweep at cache-boundary sizes on the synthetic expander
// (bench/synthetic_walk_graph.h). Arg = target node count; pick args so
// the value vector (8·nodes bytes) lands below and above L2. One
// "iteration" = BuildTransitions + CompileAbsorbingSweep + a full τ = 15
// ranking sweep — the per-query cost the serving path pays on a cache
// miss.
void BM_WalkKernelSweep(benchmark::State& state) {
  const BipartiteGraph g =
      bench::MakeSyntheticWalkGraph(static_cast<int32_t>(state.range(0)));
  std::vector<bool> absorbing(g.num_nodes(), false);
  for (NodeId nbr : g.Neighbors(0)) absorbing[nbr] = true;
  const std::vector<double> costs(g.num_nodes(), 1.0);
  std::vector<double> value;
  WalkKernel kernel;
  constexpr int kTau = 15;
  for (auto _ : state) {
    kernel.BuildTransitions(g, WalkNormalization::kRowStochastic);
    kernel.CompileAbsorbingSweep(absorbing, costs);
    kernel.SweepTruncatedItemValues(kTau, &value);
    benchmark::DoNotOptimize(value.data());
  }
  state.SetItemsProcessed(state.iterations() * kTau * g.num_edges());
}
BENCHMARK(BM_WalkKernelSweep)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 19)
    ->Unit(benchmark::kMillisecond);

// Fused multi-query sweep: Args = (nodes, fused width K). One iteration
// compiles K absorbing lanes onto a shared cached plan and runs one
// τ = 15 batch sweep — K queries served by ONE CSR pass per iteration
// instead of K. items_processed counts edges × τ × K, so items/sec is
// directly the aggregate query throughput; divide wall time by K for the
// per-query cost and compare against width 1 for the amortization curve
// (flat per-pass time until the K-strided value block outgrows cache).
void BM_WalkKernelFusedSweep(benchmark::State& state) {
  const BipartiteGraph g =
      bench::MakeSyntheticWalkGraph(static_cast<int32_t>(state.range(0)));
  const int32_t width = static_cast<int32_t>(state.range(1));
  // Distinct absorbing sets per lane (each lane absorbs the neighbourhood
  // of a different hub) — the serving engine's shape: one subgraph, many
  // users, different rated-item lanes.
  std::vector<std::vector<bool>> absorbing(width);
  for (int32_t q = 0; q < width; ++q) {
    absorbing[q].assign(g.num_nodes(), false);
    for (NodeId nbr : g.Neighbors(q % g.num_nodes())) {
      absorbing[q][nbr] = true;
    }
  }
  const std::vector<double> costs(g.num_nodes(), 1.0);
  const std::shared_ptr<const WalkPlan> plan = [&] {
    auto p = std::make_shared<WalkPlan>();
    p->Build(g, WalkNormalization::kRowStochastic);
    return p;
  }();
  std::vector<double> block;
  WalkKernel kernel;
  constexpr int kTau = 15;
  for (auto _ : state) {
    kernel.AdoptPlan(plan);
    kernel.CompileAbsorbingSweepBatch(absorbing, costs);
    kernel.SweepTruncatedItemValuesBatch(kTau, &block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() * kTau * g.num_edges() * width);
}
BENCHMARK(BM_WalkKernelFusedSweep)
    ->ArgsProduct({{1 << 14, 1 << 17, 1 << 19}, {1, 2, 4, 8, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_ItemEntropy(benchmark::State& state) {
  for (auto _ : state) {
    auto e = ItemBasedUserEntropy(Corpus().dataset);
    benchmark::DoNotOptimize(e.data());
  }
}
BENCHMARK(BM_ItemEntropy);

}  // namespace
}  // namespace longtail

BENCHMARK_MAIN();
