#include "core/graph_recommender_base.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "data/serialization.h"
#include "graph/subgraph_cache.h"
#include "util/serving_pool.h"

namespace longtail {

namespace {

/// Workspace pinned to the current thread. Serving-pool workers live for
/// the process, so their workspaces stay warm across batches — the
/// per-worker pinning the serving layer is built around. Ad-hoc
/// single-user RecommendTopK/ScoreItems callers get the same
/// zero-allocation steady state on their own threads. Deliberate
/// trade-off: the buffers (O(global nodes)) stay resident for the thread's
/// lifetime and can outlive the recommender that sized them.
WalkWorkspace& LocalWorkspace() {
  static thread_local WalkWorkspace workspace;
  return workspace;
}

}  // namespace

Status GraphRecommenderBase::Fit(const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition("Fit() must be called exactly once");
  }
  data_ = &data;
  graph_ = BipartiteGraph::FromDataset(data, options_.weighted_edges);
  return FitImpl();
}

void GraphRecommenderBase::NodeCosts(const Subgraph& sub,
                                     std::vector<double>* costs) const {
  costs->assign(sub.graph.num_nodes(), 1.0);
}

Status GraphRecommenderBase::SaveExtraChunks(CheckpointWriter& writer) const {
  (void)writer;
  return Status::OK();
}

Status GraphRecommenderBase::LoadExtraChunk(ChunkReader& chunk,
                                            bool* handled) {
  (void)chunk;
  *handled = false;
  return Status::OK();
}

Status GraphRecommenderBase::FinishLoad(const Dataset& data) {
  (void)data;
  return Status::OK();
}

Status GraphRecommenderBase::SaveModel(CheckpointWriter& writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("SaveModel requires a fitted model");
  }
  ChunkWriter options;
  options.Scalar<int32_t>(options_.iterations);
  options.Scalar<int32_t>(options_.max_subgraph_items);
  options.Scalar<uint8_t>(options_.weighted_edges ? 1 : 0);
  options.Scalar<uint8_t>(options_.exact ? 1 : 0);
  options.Scalar<int32_t>(options_.solver.max_iterations);
  options.Scalar<double>(options_.solver.tolerance);
  LT_RETURN_IF_ERROR(writer.WriteChunk(kChunkGraphWalkOptions,
                                       kCheckpointChunkVersion, options));
  ChunkWriter graph;
  graph_.SaveTo(&graph);
  LT_RETURN_IF_ERROR(
      writer.WriteChunk(kChunkBipartiteGraph, kCheckpointChunkVersion, graph));
  return SaveExtraChunks(writer);
}

Status GraphRecommenderBase::LoadModel(CheckpointReader& reader,
                                       const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition(
        "LoadModel requires an unfitted recommender");
  }
  // Staged into locals and committed only after the whole stream parses:
  // a failed load must not leave half-restored options behind, or a
  // fallback Fit() would silently train under the checkpoint's
  // configuration instead of the caller's. (Subclass state touched by
  // LoadExtraChunk needs no staging — FitImpl recomputes all of it.)
  bool have_options = false;
  bool have_graph = false;
  GraphWalkOptions loaded_options = options_;
  BipartiteGraph loaded_graph;
  ChunkReader chunk;
  while (true) {
    LT_ASSIGN_OR_RETURN(const bool more, reader.Next(&chunk));
    if (!more) break;
    switch (chunk.tag()) {
      case kChunkGraphWalkOptions: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported walk-options chunk version");
        }
        int32_t iterations = 0;
        int32_t max_items = 0;
        uint8_t weighted = 0;
        uint8_t exact = 0;
        LT_RETURN_IF_ERROR(chunk.Scalar(&iterations));
        LT_RETURN_IF_ERROR(chunk.Scalar(&max_items));
        LT_RETURN_IF_ERROR(chunk.Scalar(&weighted));
        LT_RETURN_IF_ERROR(chunk.Scalar(&exact));
        LT_RETURN_IF_ERROR(
            chunk.Scalar(&loaded_options.solver.max_iterations));
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.solver.tolerance));
        loaded_options.iterations = iterations;
        loaded_options.max_subgraph_items = max_items;
        loaded_options.weighted_edges = weighted != 0;
        loaded_options.exact = exact != 0;
        have_options = true;
        break;
      }
      case kChunkBipartiteGraph: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported graph chunk version");
        }
        LT_ASSIGN_OR_RETURN(loaded_graph, BipartiteGraph::LoadFrom(&chunk));
        have_graph = true;
        break;
      }
      default: {
        bool handled = false;
        LT_RETURN_IF_ERROR(LoadExtraChunk(chunk, &handled));
        // Unhandled tags are skipped: newer checkpoints stay loadable.
        break;
      }
    }
  }
  if (!have_options || !have_graph) {
    return Status::IOError(
        "checkpoint is missing the graph walker chunks for " + name());
  }
  // Value validation mirrors what Fit-time construction guarantees: a
  // checksummed-but-hostile file must not bind a walker whose every query
  // silently returns garbage. (max_subgraph_items may be <= 0: uncapped.)
  if (loaded_options.iterations < 1 ||
      loaded_options.solver.max_iterations < 1 ||
      !std::isfinite(loaded_options.solver.tolerance) ||
      loaded_options.solver.tolerance < 0.0) {
    return Status::IOError("checkpoint walk options are invalid");
  }
  if (loaded_graph.num_users() != data.num_users() ||
      loaded_graph.num_items() != data.num_items()) {
    return Status::InvalidArgument(
        "checkpoint graph shape does not match the dataset");
  }
  // Subclass validation runs before the commit below: if it fails, the
  // object stays unfitted (data_ null, caller's options intact) and the
  // harness's fallback Fit() still works.
  LT_RETURN_IF_ERROR(FinishLoad(data));
  options_ = loaded_options;
  graph_ = std::move(loaded_graph);
  data_ = &data;
  return Status::OK();
}

Status GraphRecommenderBase::ComputeWalk(UserId user, WalkWorkspace* ws,
                                         SubgraphCache* cache) const {
  LT_RETURN_IF_ERROR(CheckQueryUser(data_, user));
  ws->seeds.clear();
  LT_RETURN_IF_ERROR(SeedNodes(user, &ws->seeds));
  if (ws->seeds.empty()) {
    return Status::FailedPrecondition(
        "no seed nodes for user " + std::to_string(user) +
        " (cold-start users cannot be served by graph recommenders)");
  }
  SubgraphOptions sub_options;
  sub_options.max_items = options_.max_subgraph_items;
  // Subgraph extraction is a pure function of (graph, seeds, µ), so a
  // cached extraction — possibly inserted by a sibling recommender fitted
  // on the same dataset — is adopted verbatim; the walk below is
  // bit-identical either way. The cache's single-flight front door also
  // coalesces concurrent identical misses into one extraction.
  if (cache != nullptr) {
    cache->GetOrExtract(graph_, ws->seeds, sub_options, ws);
  } else {
    ExtractSubgraphInto(graph_, ws->seeds, sub_options, ws);
  }
  const Subgraph& sub = ws->sub();
  AbsorbingFlags(sub, user, &ws->absorbing);
  NodeCosts(sub, &ws->node_costs);
  if (options_.exact) {
    LT_RETURN_IF_ERROR(AbsorbingValueExactInto(sub.graph, ws->absorbing,
                                               ws->node_costs,
                                               options_.solver, &ws->values,
                                               &ws->solver));
  } else {
    // Ranking sweep: TopKFromWalk/ScoresFromWalk consume item-side values
    // only, so the kernel runs the alternating half of the DP those values
    // depend on (bit-identical item values, half the edge work). User rows
    // of ws->values hold intermediates and must not be read.
    if (sub.plan != nullptr) {
      // Warm path: the cache payload carries the plan built at admission.
      // Adoption is two pointer stores — the query's only remaining
      // per-node work is the coefficient compile below. Bit-identical to
      // the cold branch: the admission build bound the same graph.
      ws->kernel.AdoptPlan(sub.plan);
    } else {
      // Cold path: fresh extraction — rebuild the kernel's own plan.
      ws->kernel.BuildTransitions(sub.graph,
                                  WalkNormalization::kRowStochastic);
    }
    ws->kernel.CompileAbsorbingSweep(ws->absorbing, ws->node_costs);
    ws->kernel.SweepTruncatedItemValues(options_.iterations, &ws->values);
  }
  return Status::OK();
}

Result<std::vector<ScoredItem>> GraphRecommenderBase::TopKFromWalk(
    UserId user, int k, const WalkWorkspace& ws) const {
  const Subgraph& sub = ws.sub();
  const int32_t num_local_users = static_cast<int32_t>(sub.users.size());
  std::vector<ScoredItem> candidates;
  candidates.reserve(sub.items.size());
  for (size_t li = 0; li < sub.items.size(); ++li) {
    const ItemId item = sub.items[li];
    if (data_->HasRating(user, item)) continue;
    const double value = ws.values[num_local_users + static_cast<int32_t>(li)];
    if (!std::isfinite(value)) continue;  // Unreachable from absorbing set.
    candidates.push_back({item, -value});
  }
  return TopKScoredItems(std::move(candidates), k);
}

Result<std::vector<double>> GraphRecommenderBase::ScoresFromWalk(
    std::span<const ItemId> items, const WalkWorkspace& ws) const {
  const Subgraph& sub = ws.sub();
  std::vector<double> scores(items.size(), kUnreachableScore);
  for (size_t k = 0; k < items.size(); ++k) {
    const ItemId item = items[k];
    if (item < 0 || item >= data_->num_items()) {
      return Status::OutOfRange("candidate item id out of range");
    }
    const NodeId local = sub.LocalItemNode(item);
    if (local < 0) continue;  // Outside the subgraph: unreachable.
    const double value = ws.values[local];
    if (std::isfinite(value)) scores[k] = -value;
  }
  return scores;
}

Result<std::vector<ScoredItem>> GraphRecommenderBase::RecommendTopK(
    UserId user, int k) const {
  WalkWorkspace& ws = LocalWorkspace();
  LT_RETURN_IF_ERROR(ComputeWalk(user, &ws, /*cache=*/nullptr));
  return TopKFromWalk(user, k, ws);
}

Result<std::vector<double>> GraphRecommenderBase::ScoreItems(
    UserId user, std::span<const ItemId> items) const {
  WalkWorkspace& ws = LocalWorkspace();
  LT_RETURN_IF_ERROR(ComputeWalk(user, &ws, /*cache=*/nullptr));
  return ScoresFromWalk(items, ws);
}

void GraphRecommenderBase::ServeFromWalk(const UserQuery& query,
                                         const WalkWorkspace& ws,
                                         UserQueryResult* out) const {
  if (query.top_k > 0) {
    auto top = TopKFromWalk(query.user, query.top_k, ws);
    if (!top.ok()) {
      out->status = top.status();
      return;
    }
    out->top_k = std::move(top).value();
  }
  if (!query.score_items.empty()) {
    auto scores = ScoresFromWalk(query.score_items, ws);
    if (!scores.ok()) {
      out->status = scores.status();
      return;
    }
    out->scores = std::move(scores).value();
  }
}

UserQueryResult GraphRecommenderBase::RunQuery(const UserQuery& query,
                                               WalkWorkspace* ws,
                                               SubgraphCache* cache) const {
  UserQueryResult out;
  // An empty query requests nothing: skip the walk entirely and return OK,
  // matching the default Recommender::QueryBatch (which never invokes the
  // per-user virtuals for it).
  if (query.top_k <= 0 && query.score_items.empty()) return out;
  out.status = ComputeWalk(query.user, ws, cache);
  if (!out.status.ok()) return out;
  ServeFromWalk(query, *ws, &out);
  return out;
}

void GraphRecommenderBase::RunFusedGroup(std::span<const UserQuery> queries,
                                         const size_t* members, int32_t count,
                                         const BatchOptions& options,
                                         WalkWorkspace* ws,
                                         UserQueryResult* results) const {
  // Resolve the shared subgraph once from the first member's seeds: all
  // members carry the same exact seed set, and extraction is a pure
  // function of (graph, seeds, µ), so every member's sequential RunQuery
  // would have produced this same subgraph (and, through the cache, the
  // same payload).
  ws->seeds.clear();
  const Status st = SeedNodes(queries[members[0]].user, &ws->seeds);
  if (!st.ok() || ws->seeds.empty()) {
    // Unreachable: phase A validated every member; fail them all rather
    // than serve garbage if a SeedNodes override is non-deterministic.
    for (int32_t q = 0; q < count; ++q) {
      results[members[q]].status =
          st.ok() ? Status::FailedPrecondition("seed set vanished") : st;
    }
    return;
  }
  SubgraphOptions sub_options;
  sub_options.max_items = options_.max_subgraph_items;
  if (options.subgraph_cache != nullptr) {
    options.subgraph_cache->GetOrExtract(graph_, ws->seeds, sub_options, ws);
  } else {
    ExtractSubgraphInto(graph_, ws->seeds, sub_options, ws);
  }
  const Subgraph& sub = ws->sub();
  NodeCosts(sub, &ws->node_costs);
  if (sub.plan != nullptr) {
    ws->kernel.AdoptPlan(sub.plan);
  } else {
    ws->kernel.BuildTransitions(sub.graph, WalkNormalization::kRowStochastic);
  }
  const int32_t n = sub.graph.num_nodes();
  int32_t cap = WalkKernel::FusedWidthCap(n);
  if (options.max_fused_width > 0) {
    cap = std::min(cap, options.max_fused_width);
  }
  for (int32_t begin = 0; begin < count; begin += cap) {
    const int32_t width = std::min(cap, count - begin);
    if (options.fused_width_observer != nullptr) {
      (*options.fused_width_observer)(width);
    }
    if (width == 1) {
      // A lone lane runs the sequential sweep — same result (a width-1
      // batch is the sequential pass), no strided block to de-interleave.
      const UserQuery& query = queries[members[begin]];
      AbsorbingFlags(sub, query.user, &ws->absorbing);
      ws->kernel.CompileAbsorbingSweep(ws->absorbing, ws->node_costs);
      ws->kernel.SweepTruncatedItemValues(options_.iterations, &ws->values);
      ServeFromWalk(query, *ws, &results[members[begin]]);
      continue;
    }
    ws->batch_absorbing.resize(width);
    for (int32_t q = 0; q < width; ++q) {
      AbsorbingFlags(sub, queries[members[begin + q]].user,
                     &ws->batch_absorbing[q]);
    }
    ws->kernel.CompileAbsorbingSweepBatch(ws->batch_absorbing,
                                          ws->node_costs);
    ws->kernel.SweepTruncatedItemValuesBatch(options_.iterations,
                                             &ws->values_block);
    const double* block = ws->values_block.data();
    for (int32_t q = 0; q < width; ++q) {
      // De-interleave lane q into the workspace value vector TopKFromWalk /
      // ScoresFromWalk read — an exact copy, so serving is untouched by
      // fusion.
      ws->values.resize(n);
      for (int32_t v = 0; v < n; ++v) {
        ws->values[v] = block[static_cast<size_t>(v) * width + q];
      }
      ServeFromWalk(queries[members[begin + q]], *ws,
                    &results[members[begin + q]]);
    }
  }
}

std::vector<UserQueryResult> GraphRecommenderBase::QueryBatch(
    std::span<const UserQuery> queries, const BatchOptions& options) const {
  std::vector<UserQueryResult> results(queries.size());
  if (queries.empty()) return results;
  ServingPool& pool =
      options.pool != nullptr ? *options.pool : ServingPool::Global();
  if (options_.exact) {
    // The exact solver has no fused path: dispatch per query, claimed one
    // at a time (grain 1) so skewed subgraph sizes stay balanced, each
    // thread on its pinned workspace.
    pool.ParallelFor(
        queries.size(),
        [&](size_t i) {
          results[i] =
              RunQuery(queries[i], &LocalWorkspace(), options.subgraph_cache);
        },
        options.num_threads, /*grain=*/1);
    return results;
  }
  // Phase A (sequential, O(Σ seed set) — cheap next to the walks): compute
  // every query's seed set and group queries whose sets are identical.
  // Validation failures resolve here with statuses identical to the
  // per-query path's; empty queries keep their default OK result.
  std::map<std::vector<NodeId>, std::vector<size_t>> by_seeds;
  {
    std::vector<NodeId> seeds;
    for (size_t i = 0; i < queries.size(); ++i) {
      const UserQuery& q = queries[i];
      if (q.top_k <= 0 && q.score_items.empty()) continue;
      Status st = CheckQueryUser(data_, q.user);
      if (st.ok()) {
        seeds.clear();
        st = SeedNodes(q.user, &seeds);
        if (st.ok() && seeds.empty()) {
          st = Status::FailedPrecondition(
              "no seed nodes for user " + std::to_string(q.user) +
              " (cold-start users cannot be served by graph recommenders)");
        }
      }
      if (!st.ok()) {
        results[i].status = std::move(st);
        continue;
      }
      by_seeds[seeds].push_back(i);
    }
  }
  // Phase B: flatten the groups into dispatch slices of at most the width
  // ceiling, so one giant group (every warm query hitting one hot user's
  // subgraph) still spreads across pool workers; RunFusedGroup re-chunks a
  // slice further if the probed per-subgraph cap is smaller.
  const int32_t slice_cap =
      options.max_fused_width > 0
          ? std::min<int32_t>(options.max_fused_width,
                              WalkKernel::kMaxFusedWidth)
          : 16;
  struct Slice {
    const std::vector<size_t>* members;
    int32_t begin;
    int32_t count;
  };
  std::vector<Slice> slices;
  for (const auto& entry : by_seeds) {
    const std::vector<size_t>& members = entry.second;
    const int32_t total = static_cast<int32_t>(members.size());
    for (int32_t b = 0; b < total; b += slice_cap) {
      slices.push_back({&members, b, std::min(slice_cap, total - b)});
    }
  }
  pool.ParallelFor(
      slices.size(),
      [&](size_t si) {
        const Slice& s = slices[si];
        RunFusedGroup(queries, s.members->data() + s.begin, s.count, options,
                      &LocalWorkspace(), results.data());
      },
      options.num_threads, /*grain=*/1);
  return results;
}

}  // namespace longtail
