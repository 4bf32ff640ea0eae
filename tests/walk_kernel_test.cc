// Walk-kernel / legacy parity: the pre-normalized WalkKernel
// sweeps must agree with the retained reference loop
// (AbsorbingValueTruncatedReference) on random bipartite graphs — including
// isolated nodes, all-absorbing and empty-absorbing sets, and empty
// subgraphs — and fused, shared-plan and AVX2 sweeps must be bit-identical
// to the sequential generic sweep. Recommender-level batch parity lives in
// batch_parity_test and component_walk_test.
//
// Tolerance contract (documented in docs/KERNELS.md): the kernel
// pre-divides weights by degree and re-associates the row sum, so ordinary
// transient rows agree with the reference to ~1e-13 relative per
// iteration; absorbing rows are exactly 0 and isolated transient rows are
// bit-identical (same two-operand additions) on both paths.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "graph/markov.h"
#include "graph/subgraph.h"
#include "graph/walk_kernel.h"
#include "test_util.h"

namespace longtail {
namespace {

using testing::TruncatedValues;

/// Random bipartite graph with `edge_prob` density; users/items past the
/// `connected_*` counts are left isolated on purpose.
BipartiteGraph RandomGraph(int32_t num_users, int32_t num_items,
                           double edge_prob, uint64_t seed,
                           int32_t isolated_users = 0,
                           int32_t isolated_items = 0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> rating(1, 5);
  const int32_t connected_users = num_users - isolated_users;
  const int32_t connected_items = num_items - isolated_items;
  std::vector<std::vector<std::pair<NodeId, double>>> adj(num_users +
                                                          num_items);
  for (int32_t u = 0; u < connected_users; ++u) {
    for (int32_t i = 0; i < connected_items; ++i) {
      if (coin(rng) >= edge_prob) continue;
      const double w = static_cast<double>(rating(rng));
      adj[u].push_back({num_users + i, w});
      adj[num_users + i].push_back({u, w});
    }
  }
  return BipartiteGraph::FromAdjacency(num_users, num_items, adj);
}

std::vector<bool> RandomAbsorbing(int32_t n, double prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<bool> absorbing(n, false);
  for (int32_t v = 0; v < n; ++v) absorbing[v] = coin(rng) < prob;
  return absorbing;
}

std::vector<double> RandomCosts(int32_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cost(0.0, 3.0);
  std::vector<double> costs(n);
  for (int32_t v = 0; v < n; ++v) costs[v] = cost(rng);
  return costs;
}

void ExpectSweepParity(const BipartiteGraph& g,
                       const std::vector<bool>& absorbing,
                       const std::vector<double>& costs, int iterations,
                       const std::string& label) {
  std::vector<double> ref, ref_scratch;
  AbsorbingValueTruncatedReference(g, absorbing, costs, iterations, &ref,
                                   &ref_scratch);
  const std::vector<double> ker =
      TruncatedValues(g, absorbing, costs, iterations);
  ASSERT_EQ(ref.size(), ker.size()) << label;
  for (size_t v = 0; v < ref.size(); ++v) {
    const double tol =
        1e-12 * std::max({1.0, std::abs(ref[v]), std::abs(ker[v])});
    EXPECT_NEAR(ref[v], ker[v], tol) << label << " node " << v;
    if (absorbing[v]) {
      // Absorbing rows are pinned at exactly zero on both paths.
      EXPECT_EQ(0.0, ker[v]) << label << " node " << v;
    } else if (g.WeightedDegree(v) <= 0.0) {
      // Isolated transient rows perform the same two-operand additions on
      // both paths, so they must match bit for bit.
      EXPECT_EQ(ref[v], ker[v]) << label << " node " << v;
    }
  }
}

TEST(WalkKernelTest, MatchesReferenceOnRandomGraphs) {
  struct Config {
    int32_t users, items, isolated_users, isolated_items;
    double density, absorbing_prob;
  };
  const Config configs[] = {
      {40, 30, 0, 0, 0.15, 0.2},
      {80, 120, 5, 9, 0.05, 0.1},   // sparse, with isolated nodes
      {17, 11, 3, 2, 0.60, 0.5},    // dense, heavy absorbing set
      {64, 64, 0, 0, 0.02, 0.05},   // nearly disconnected
      {1, 1, 0, 0, 1.0, 0.5},       // minimal
  };
  uint64_t seed = 1000;
  for (const Config& c : configs) {
    const BipartiteGraph g = RandomGraph(c.users, c.items, c.density, ++seed,
                                         c.isolated_users, c.isolated_items);
    const int32_t n = g.num_nodes();
    for (int rep = 0; rep < 3; ++rep) {
      const auto absorbing = RandomAbsorbing(n, c.absorbing_prob, ++seed);
      const std::string label = "graph " + std::to_string(c.users) + "x" +
                                std::to_string(c.items) + " rep " +
                                std::to_string(rep);
      ExpectSweepParity(g, absorbing, std::vector<double>(n, 1.0), 15,
                        label + " unit-cost");
      ExpectSweepParity(g, absorbing, RandomCosts(n, ++seed), 15,
                        label + " random-cost");
    }
  }
}

TEST(WalkKernelTest, AllAbsorbingIsExactlyZero) {
  const BipartiteGraph g = RandomGraph(20, 25, 0.2, 7);
  const std::vector<bool> absorbing(g.num_nodes(), true);
  for (double v : TruncatedValues(g, absorbing, testing::UnitCosts(g), 15)) {
    EXPECT_EQ(0.0, v);
  }
}

TEST(WalkKernelTest, EmptyAbsorbingSetMatchesReference) {
  // No absorbing nodes: every value grows toward τ·cost. The kernel must
  // track the reference (and neither may blow up or NaN).
  const BipartiteGraph g = RandomGraph(30, 20, 0.2, 11, 2, 3);
  const int32_t n = g.num_nodes();
  ExpectSweepParity(g, std::vector<bool>(n, false), RandomCosts(n, 12), 25,
                    "empty absorbing set");
}

TEST(WalkKernelTest, ZeroIterationsLeavesZeros) {
  const BipartiteGraph g = RandomGraph(10, 10, 0.3, 21);
  const std::vector<double> value =
      TruncatedValues(g, RandomAbsorbing(g.num_nodes(), 0.3, 22),
                      testing::UnitCosts(g), 0);
  ASSERT_EQ(static_cast<size_t>(g.num_nodes()), value.size());
  for (double v : value) EXPECT_EQ(0.0, v);
}

TEST(WalkKernelTest, EmptySeedSubgraphAndEmptyGraph) {
  // Empty seed set → empty subgraph → the kernel must handle n == 0.
  const BipartiteGraph g = RandomGraph(12, 8, 0.3, 31);
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {}, SubgraphOptions{}, &ws);
  EXPECT_EQ(0, sub.graph.num_nodes());
  EXPECT_TRUE(TruncatedValues(sub.graph, {}, {}, 15, &ws.kernel).empty());
  // Default-constructed (empty) graph on a fresh kernel.
  EXPECT_TRUE(TruncatedValues(BipartiteGraph(), {}, {}, 15).empty());
}

TEST(WalkKernelTest, RebuildAcrossQueriesMatchesFreshKernel) {
  // One long-lived kernel (the WalkWorkspace situation) recompiled for a
  // sequence of different graphs and absorbing sets must match a fresh
  // kernel on every query, bit for bit.
  WalkKernel reused;
  uint64_t seed = 500;
  for (int query = 0; query < 5; ++query) {
    const BipartiteGraph g =
        RandomGraph(20 + 7 * query, 30 - 3 * query, 0.2, ++seed, query, 1);
    const int32_t n = g.num_nodes();
    const auto absorbing = RandomAbsorbing(n, 0.25, ++seed);
    const auto costs = RandomCosts(n, ++seed);
    const std::vector<double> fresh = TruncatedValues(g, absorbing, costs, 10);
    const std::vector<double> reused_value =
        TruncatedValues(g, absorbing, costs, 10, &reused);
    ASSERT_EQ(fresh.size(), reused_value.size());
    for (size_t v = 0; v < fresh.size(); ++v) {
      EXPECT_EQ(fresh[v], reused_value[v]) << "query " << query;
    }
  }
}

TEST(WalkKernelTest, ItemValuesSweepMatchesFullSweepBitwise) {
  // The production ranking sweep computes only the alternating chain the
  // item-side values depend on; those values must be BIT-identical to the
  // full double-buffered sweep, including isolated items (which take two
  // chained cost additions per step) — at both even and odd τ.
  uint64_t seed = 9000;
  for (int iterations : {0, 1, 2, 7, 15, 16}) {
    const BipartiteGraph g = RandomGraph(40, 35, 0.12, ++seed, 4, 5);
    const int32_t n = g.num_nodes();
    const auto absorbing = RandomAbsorbing(n, 0.15, ++seed);
    const auto costs = RandomCosts(n, ++seed);
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkNormalization::kRowStochastic);
    kernel.CompileAbsorbingSweep(absorbing, costs);
    std::vector<double> full, scratch, ranking;
    kernel.SweepTruncated(iterations, &full, &scratch);
    kernel.SweepTruncatedItemValues(iterations, &ranking);
    ASSERT_EQ(full.size(), ranking.size());
    for (int32_t v = g.num_users(); v < n; ++v) {
      EXPECT_EQ(full[v], ranking[v])
          << "item node " << v << " tau " << iterations;
    }
  }
}

TEST(WalkKernelTest, ApplyColumnStochasticMatchesPprScatter) {
  const BipartiteGraph g = RandomGraph(25, 35, 0.15, 77, 2, 2);
  const int32_t n = g.num_nodes();
  std::mt19937_64 rng(78);
  std::uniform_real_distribution<double> mass(0.0, 1.0);
  std::vector<double> x(n), restart(n);
  for (int32_t v = 0; v < n; ++v) {
    x[v] = mass(rng);
    restart[v] = mass(rng);
  }
  const double lambda = 0.5;
  // Reference: the pre-kernel edge-by-edge scatter of (1-λ)r + λPᵀx.
  std::vector<double> expected(n);
  for (int32_t v = 0; v < n; ++v) expected[v] = (1.0 - lambda) * restart[v];
  for (int32_t v = 0; v < n; ++v) {
    const double d = g.WeightedDegree(v);
    if (d <= 0.0) continue;
    const double out = lambda * x[v] / d;
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += out * wts[k];
    }
  }
  WalkKernel kernel;
  kernel.BuildTransitions(g, WalkNormalization::kColumnStochastic);
  std::vector<double> actual(n);
  kernel.Apply(lambda, x.data(), 1.0 - lambda, restart.data(), actual.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(expected[v], actual[v],
                1e-12 * std::max(1.0, std::abs(expected[v])))
        << "node " << v;
  }
}

TEST(WalkKernelTest, ApplyRawMatchesKatzScatter) {
  const BipartiteGraph g = RandomGraph(30, 20, 0.2, 91);
  const int32_t n = g.num_nodes();
  std::mt19937_64 rng(92);
  std::uniform_real_distribution<double> mass(0.0, 1.0);
  std::vector<double> x(n);
  for (int32_t v = 0; v < n; ++v) x[v] = mass(rng) < 0.5 ? 0.0 : mass(rng);
  const double beta = 0.01;
  std::vector<double> expected(n, 0.0);
  for (int32_t v = 0; v < n; ++v) {
    if (x[v] == 0.0) continue;
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += beta * x[v] * wts[k];
    }
  }
  WalkKernel kernel;
  kernel.BuildTransitions(g, WalkNormalization::kRaw);
  std::vector<double> actual(n);
  kernel.Apply(beta, x.data(), 0.0, nullptr, actual.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(expected[v], actual[v],
                1e-12 * std::max(1.0, std::abs(expected[v])))
        << "node " << v;
    if (expected[v] == 0.0) {
      // Nodes no mass can reach must stay exactly zero (katz_test relies
      // on exact zeros to mark unreachable items).
      EXPECT_EQ(0.0, actual[v]) << "node " << v;
    }
  }
}

TEST(WalkKernelTest, ApplySparseFrontierTakesPushAndMatchesScatter) {
  // A single-nonzero input (the first Katz/PPR step) must route through
  // the sparse push path and still match the reference scatter for both
  // Apply normalizations.
  const BipartiteGraph g = RandomGraph(40, 30, 0.15, 131);
  const int32_t n = g.num_nodes();
  std::vector<double> x(n, 0.0), restart(n, 0.0);
  const NodeId source = g.UserNode(7);
  x[source] = 1.0;
  for (int32_t v = 0; v < n; ++v) restart[v] = 0.01 * (v + 1);
  {
    std::vector<double> expected(n);
    const double lambda = 0.5;
    for (int32_t v = 0; v < n; ++v) expected[v] = (1.0 - lambda) * restart[v];
    const double d = g.WeightedDegree(source);
    ASSERT_GT(d, 0.0);
    const auto nbrs = g.Neighbors(source);
    const auto wts = g.Weights(source);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += lambda / d * wts[k];
    }
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkNormalization::kColumnStochastic);
    std::vector<double> actual(n);
    kernel.Apply(lambda, x.data(), 1.0 - lambda, restart.data(),
                 actual.data());
    for (int32_t v = 0; v < n; ++v) {
      EXPECT_NEAR(expected[v], actual[v],
                  1e-12 * std::max(1.0, std::abs(expected[v])))
          << "node " << v;
    }
  }
  {
    const double beta = 0.01;
    std::vector<double> expected(n, 0.0);
    const auto nbrs = g.Neighbors(source);
    const auto wts = g.Weights(source);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += beta * wts[k];
    }
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkNormalization::kRaw);
    std::vector<double> actual(n);
    kernel.Apply(beta, x.data(), 0.0, nullptr, actual.data());
    for (int32_t v = 0; v < n; ++v) {
      EXPECT_NEAR(expected[v], actual[v],
                  1e-12 * std::max(1.0, std::abs(expected[v])))
          << "node " << v;
      if (expected[v] == 0.0) EXPECT_EQ(0.0, actual[v]) << "node " << v;
    }
  }
}

// Runtime ISA dispatch: one portable binary carries a scalar and (on
// x86-64 toolchains) an AVX2 row-gather; the CPUID probe picks one at
// kernel construction. The two must be BIT-identical — same per-lane
// accumulation, same reduction tree, no FP contraction — across every
// sweep flavour. On hosts without AVX2 both kernels bind "generic" and
// the comparison is trivially green; the CI AVX2 leg pins the real case.
TEST(WalkKernelTest, RuntimeIsaDispatchBitIdenticalToGeneric) {
  const BipartiteGraph g = RandomGraph(70, 90, 0.12, 4242, 4, 5);
  const int32_t n = g.num_nodes();
  const auto absorbing = RandomAbsorbing(n, 0.15, 4243);
  const auto costs = RandomCosts(n, 4244);

  WalkKernel dispatched;  // whatever the CPU probe picked
  WalkKernel generic;
  generic.ForceGenericIsaForTesting();
  EXPECT_STREQ(generic.isa_name(), "generic");
  if (WalkKernel::RuntimeAvx2Available()) {
    EXPECT_STREQ(dispatched.isa_name(), "avx2");
  } else {
    EXPECT_STREQ(dispatched.isa_name(), "generic");
  }

  // Absorbing sweeps: full double-buffered and in-place ranking flavours.
  dispatched.BuildTransitions(g, WalkNormalization::kRowStochastic);
  generic.BuildTransitions(g, WalkNormalization::kRowStochastic);
  dispatched.CompileAbsorbingSweep(absorbing, costs);
  generic.CompileAbsorbingSweep(absorbing, costs);
  for (int tau : {1, 2, 7, 15}) {
    std::vector<double> va, sa, vb, sb;
    dispatched.SweepTruncated(tau, &va, &sa);
    generic.SweepTruncated(tau, &vb, &sb);
    ASSERT_EQ(va.size(), vb.size());
    for (size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v], vb[v]) << "full sweep tau " << tau << " node " << v;
    }
    std::vector<double> ra, rb;
    dispatched.SweepTruncatedItemValues(tau, &ra);
    generic.SweepTruncatedItemValues(tau, &rb);
    for (int32_t v = g.num_users(); v < n; ++v) {
      EXPECT_EQ(ra[v], rb[v]) << "ranking sweep tau " << tau << " item row "
                              << v;
    }
  }

  // Power-iteration Apply, dense pull path (x dense everywhere so the
  // sparse push is never chosen), with and without a restart vector.
  WalkKernel dispatched_col, generic_col;
  generic_col.ForceGenericIsaForTesting();
  dispatched_col.BuildTransitions(
      g, WalkNormalization::kColumnStochastic);
  generic_col.BuildTransitions(g,
                               WalkNormalization::kColumnStochastic);
  std::vector<double> x(n), restart(n);
  for (int32_t v = 0; v < n; ++v) {
    x[v] = 0.25 + 0.5 * ((v * 2654435761u) % 97) / 97.0;
    restart[v] = v % 7 == 0 ? 1.0 / 7.0 : 0.0;
  }
  std::vector<double> ya(n), yb(n);
  dispatched_col.Apply(0.85, x.data(), 0.15, restart.data(), ya.data());
  generic_col.Apply(0.85, x.data(), 0.15, restart.data(), yb.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_EQ(ya[v], yb[v]) << "apply+restart node " << v;
  }
  dispatched_col.Apply(0.5, x.data(), 0.0, nullptr, ya.data());
  generic_col.Apply(0.5, x.data(), 0.0, nullptr, yb.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_EQ(ya[v], yb[v]) << "apply node " << v;
  }
}

// The fused multi-query sweep's contract: lane q of the strided value
// block is bit-identical to a sequential SweepTruncatedItemValues of query
// q — across both ISA flavours, ragged widths (the lane tail past the last
// multiple of 4), mixed per-query absorbing sets, and odd/even iteration
// counts.
TEST(WalkKernelTest, FusedBatchSweepBitIdenticalToSequential) {
  uint64_t seed = 90000;
  const BipartiteGraph g = RandomGraph(90, 110, 0.10, ++seed, 5, 6);
  const int32_t n = g.num_nodes();
  const auto costs = RandomCosts(n, ++seed);
  for (int width : {1, 2, 3, 4, 5, 7, 8, 11, 16, 17}) {
    std::vector<std::vector<bool>> absorbing;
    for (int q = 0; q < width; ++q) {
      absorbing.push_back(RandomAbsorbing(n, 0.15, seed + 100 + q));
    }
    for (bool generic : {false, true}) {
      for (int tau : {1, 2, 7, 16}) {
        WalkKernel k;
        if (generic) k.ForceGenericIsaForTesting();
        k.BuildTransitions(g, WalkNormalization::kRowStochastic);
        k.CompileAbsorbingSweepBatch(absorbing, costs);
        std::vector<double> block;
        k.SweepTruncatedItemValuesBatch(tau, &block);
        ASSERT_EQ(static_cast<size_t>(n) * width, block.size());
        for (int q = 0; q < width; ++q) {
          k.CompileAbsorbingSweep(absorbing[q], costs);
          std::vector<double> seq;
          k.SweepTruncatedItemValues(tau, &seq);
          for (int32_t v = g.num_users(); v < n; ++v) {
            ASSERT_EQ(seq[v], block[static_cast<size_t>(v) * width + q])
                << k.isa_name() << " width " << width << " tau " << tau
                << " lane " << q << " item row " << v;
          }
        }
      }
    }
  }
}

// Degenerate batches: empty seed subgraph, zero iterations, a lane whose
// absorbing set covers every node, and width 1 (the fused path must be a
// drop-in for the sequential sweep even when nothing fuses).
TEST(WalkKernelTest, FusedBatchHandlesEmptyAndAllAbsorbingLanes) {
  const BipartiteGraph empty = BipartiteGraph::FromAdjacency(0, 0, {});
  {
    WalkKernel k;
    k.BuildTransitions(empty, WalkNormalization::kRowStochastic);
    k.CompileAbsorbingSweepBatch({{}, {}, {}}, {});
    std::vector<double> block{1.0, 2.0};
    k.SweepTruncatedItemValuesBatch(15, &block);
    EXPECT_TRUE(block.empty());
  }

  const BipartiteGraph g = RandomGraph(30, 20, 0.2, 91001, 2, 3);
  const int32_t n = g.num_nodes();
  const auto costs = RandomCosts(n, 91002);
  std::vector<std::vector<bool>> absorbing;
  absorbing.push_back(std::vector<bool>(n, true));   // everything absorbs
  absorbing.push_back(std::vector<bool>(n, false));  // nothing absorbs
  absorbing.push_back(RandomAbsorbing(n, 0.3, 91003));
  WalkKernel k;
  k.BuildTransitions(g, WalkNormalization::kRowStochastic);
  k.CompileAbsorbingSweepBatch(absorbing, costs);
  std::vector<double> block;
  k.SweepTruncatedItemValuesBatch(0, &block);
  for (double x : block) EXPECT_EQ(0.0, x);
  k.SweepTruncatedItemValuesBatch(15, &block);
  for (int q = 0; q < 3; ++q) {
    k.CompileAbsorbingSweep(absorbing[q], costs);
    std::vector<double> seq;
    k.SweepTruncatedItemValues(15, &seq);
    for (int32_t v = g.num_users(); v < n; ++v) {
      ASSERT_EQ(seq[v], block[static_cast<size_t>(v) * 3 + q])
          << "lane " << q << " item row " << v;
    }
  }
}

// Eight workers fused-sweeping one shared adopted plan concurrently (the
// grouped-QueryBatch steady state) must each match the single-threaded
// sequential sweeps bit for bit.
TEST(WalkKernelTest, FusedBatchSharedPlanParityAtOneAndEightThreads) {
  const BipartiteGraph g = RandomGraph(120, 100, 0.05, 92000, 4, 3);
  const int32_t n = g.num_nodes();
  const auto costs = RandomCosts(n, 92001);
  constexpr int kTau = 15;
  constexpr int kWidth = 5;
  std::vector<std::vector<bool>> absorbing;
  for (int q = 0; q < kWidth; ++q) {
    absorbing.push_back(RandomAbsorbing(n, 0.15, 92002 + q));
  }

  std::vector<std::vector<double>> expected(kWidth);
  {
    WalkKernel identity;
    identity.BuildTransitions(g, WalkNormalization::kRowStochastic);
    for (int q = 0; q < kWidth; ++q) {
      identity.CompileAbsorbingSweep(absorbing[q], costs);
      identity.SweepTruncatedItemValues(kTau, &expected[q]);
    }
  }

  auto plan = std::make_shared<WalkPlan>();
  plan->Build(g, WalkNormalization::kRowStochastic);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    std::vector<std::vector<double>> blocks(threads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        WalkKernel k;
        k.AdoptPlan(plan);
        k.CompileAbsorbingSweepBatch(absorbing, costs);
        k.SweepTruncatedItemValuesBatch(kTau, &blocks[t]);
      });
    }
    for (auto& th : pool) th.join();
    for (size_t t = 0; t < threads; ++t) {
      ASSERT_EQ(static_cast<size_t>(n) * kWidth, blocks[t].size());
      for (int q = 0; q < kWidth; ++q) {
        for (int32_t v = g.num_users(); v < n; ++v) {
          EXPECT_EQ(expected[q][v],
                    blocks[t][static_cast<size_t>(v) * kWidth + q])
              << threads << "t worker " << t << " lane " << q << " item row "
              << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace longtail
