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
  LT_RETURN_IF_ERROR(FitImpl());
  BuildComponentPayloads();
  return Status::OK();
}

void GraphRecommenderBase::BuildComponentPayloads() {
  component_payloads_.clear();
  node_payload_.clear();
  const int32_t n = graph_.num_nodes();
  const int32_t mu = options_.max_subgraph_items;
  // Label components by BFS, counting each one's items.
  std::vector<int32_t> component(n, -1);
  std::vector<NodeId> roots;
  std::vector<int32_t> items;
  std::vector<NodeId> queue;
  for (NodeId root = 0; root < n; ++root) {
    if (component[root] >= 0) continue;
    const int32_t c = static_cast<int32_t>(roots.size());
    roots.push_back(root);
    items.push_back(0);
    component[root] = c;
    queue.assign(1, root);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      if (graph_.IsItemNode(v)) ++items[c];
      for (NodeId nbr : graph_.Neighbors(v)) {
        if (component[nbr] < 0) {
          component[nbr] = c;
          queue.push_back(nbr);
        }
      }
    }
  }
  // A component whose µ cap cannot fire is every seed set's subgraph in it
  // (subgraph.h's ordering contract): extract it once, from its root.
  // Isolated nodes are never seeds of a served query and get none.
  std::vector<int32_t> payload_of(roots.size(), -1);
  WalkWorkspace ws;
  SubgraphOptions sub_options;
  sub_options.max_items = mu;
  for (size_t c = 0; c < roots.size(); ++c) {
    if ((mu > 0 && items[c] > mu) || graph_.Degree(roots[c]) == 0) continue;
    ExtractSubgraphInto(graph_, {roots[c]}, sub_options, &ws);
    payload_of[c] = static_cast<int32_t>(component_payloads_.size());
    component_payloads_.push_back(DetachSharedSubgraph(ws));
  }
  if (component_payloads_.empty()) return;
  node_payload_.resize(n);
  for (NodeId v = 0; v < n; ++v) node_payload_[v] = payload_of[component[v]];
}

int32_t GraphRecommenderBase::ComponentPayloadOf(
    const std::vector<NodeId>& seeds) const {
  if (node_payload_.empty()) return -1;
  const int32_t payload = node_payload_[seeds[0]];
  for (NodeId s : seeds) {
    if (node_payload_[s] != payload) return -1;  // seeds span components
  }
  return payload;
}

Status GraphRecommenderBase::QuerySeeds(UserId user,
                                        std::vector<NodeId>* seeds) const {
  LT_RETURN_IF_ERROR(CheckQueryUser(data_, user));
  seeds->clear();
  LT_RETURN_IF_ERROR(SeedNodes(user, seeds));
  if (seeds->empty()) {
    return Status::FailedPrecondition(
        "no seed nodes for user " + std::to_string(user) +
        " (cold-start users cannot be served by graph recommenders)");
  }
  return Status::OK();
}

void GraphRecommenderBase::ResolveSubgraph(int32_t payload,
                                           const std::vector<NodeId>& seeds,
                                           WalkWorkspace* ws,
                                           SubgraphCache* cache) const {
  if (payload >= 0) {
    // The whole component, built at Fit/LoadModel: the same subgraph an
    // extraction from any seed set in it would produce, without the copy.
    ws->AdoptSharedSubgraph(component_payloads_[payload]);
    return;
  }
  SubgraphOptions sub_options;
  sub_options.max_items = options_.max_subgraph_items;
  // Subgraph extraction is a pure function of (graph, seeds, µ), so a
  // cached extraction — possibly inserted by a sibling recommender fitted
  // on the same dataset — is adopted verbatim; the walk is bit-identical
  // either way. The cache's single-flight front door also coalesces
  // concurrent identical misses into one extraction.
  if (cache != nullptr) {
    cache->GetOrExtract(graph_, seeds, sub_options, ws);
  } else {
    ExtractSubgraphInto(graph_, seeds, sub_options, ws);
  }
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
  BuildComponentPayloads();
  return Status::OK();
}

std::vector<ScoredItem> GraphRecommenderBase::TopKFromWalk(
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

void GraphRecommenderBase::ServeFromWalk(const UserQuery& query,
                                         const WalkWorkspace& ws,
                                         UserQueryResult* out) const {
  if (query.top_k > 0) out->top_k = TopKFromWalk(query.user, query.top_k, ws);
  if (!query.score_items.empty()) {
    auto scores = ScoresFromWalk(query.score_items, ws);
    if (!scores.ok()) {
      out->status = scores.status();
      return;
    }
    out->scores = std::move(scores).value();
  }
}

UserQueryResult GraphRecommenderBase::QueryOne(const UserQuery& query) const {
  // A group of one on this thread's workspace: no pool, no cache.
  WalkWorkspace& ws = LocalWorkspace();
  UserQueryResult result;
  result.status = QuerySeeds(query.user, &ws.seeds);
  if (result.status.ok()) {
    const size_t member = 0;
    RunGroup({&query, 1}, {&member, 1}, ComponentPayloadOf(ws.seeds), ws.seeds,
             BatchOptions{}, &ws, &result);
  }
  return result;
}

Result<std::vector<ScoredItem>> GraphRecommenderBase::RecommendTopK(
    UserId user, int k) const {
  UserQueryResult result = QueryOne({user, k, {}});
  if (!result.status.ok()) return result.status;
  return std::move(result.top_k);
}

Result<std::vector<double>> GraphRecommenderBase::ScoreItems(
    UserId user, std::span<const ItemId> items) const {
  UserQueryResult result = QueryOne({user, 0, items});
  if (!result.status.ok()) return result.status;
  return std::move(result.scores);
}

void GraphRecommenderBase::RunGroup(std::span<const UserQuery> queries,
                                    std::span<const size_t> members,
                                    int32_t payload,
                                    const std::vector<NodeId>& seeds,
                                    const BatchOptions& options,
                                    WalkWorkspace* ws,
                                    UserQueryResult* results) const {
  // Every member walks this one subgraph: they share its component payload
  // or carry the same seed set, and extraction is a pure function of
  // (graph, seeds, µ). Node costs depend on the subgraph alone.
  ResolveSubgraph(payload, seeds, ws, options.subgraph_cache);
  const Subgraph& sub = ws->sub();
  NodeCosts(sub, &ws->node_costs);
  if (options_.exact) {
    // The exact solve has no fused form: members solve one at a time.
    for (const size_t m : members) {
      AbsorbingFlags(sub, queries[m].user, &ws->absorbing);
      results[m].status =
          AbsorbingValueExactInto(sub.graph, ws->absorbing, ws->node_costs,
                                  options_.solver, &ws->values, &ws->solver);
      if (results[m].status.ok()) ServeFromWalk(queries[m], *ws, &results[m]);
    }
    return;
  }
  if (sub.plan != nullptr) {
    // A shared payload carries the plan built with it: adoption is two
    // pointer stores, bit-identical to rebuilding it from the same graph.
    ws->kernel.AdoptPlan(sub.plan);
  } else {
    ws->kernel.BuildTransitions(sub.graph, WalkNormalization::kRowStochastic);
  }
  // Ranking sweeps: TopKFromWalk/ScoresFromWalk read item rows only, so the
  // kernel runs the alternating half of the DP those rows depend on.
  const int32_t n = sub.graph.num_nodes();
  const size_t cap = static_cast<size_t>(WalkKernel::FusedWidthCap(n));
  for (size_t begin = 0; begin < members.size(); begin += cap) {
    const std::span<const size_t> lanes =
        members.subspan(begin, std::min(cap, members.size() - begin));
    const int32_t width = static_cast<int32_t>(lanes.size());
    if (options.fused_width_observer != nullptr) {
      (*options.fused_width_observer)(width);
    }
    if (width == 1) {
      // A lone lane runs the sequential sweep — same result (a width-1
      // batch is the sequential pass), no strided block to de-interleave.
      const UserQuery& query = queries[lanes[0]];
      AbsorbingFlags(sub, query.user, &ws->absorbing);
      ws->kernel.CompileAbsorbingSweep(ws->absorbing, ws->node_costs);
      ws->kernel.SweepTruncatedItemValues(options_.iterations, &ws->values);
      ServeFromWalk(query, *ws, &results[lanes[0]]);
      continue;
    }
    ws->batch_absorbing.resize(width);
    for (int32_t q = 0; q < width; ++q) {
      AbsorbingFlags(sub, queries[lanes[q]].user, &ws->batch_absorbing[q]);
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
      ServeFromWalk(queries[lanes[q]], *ws, &results[lanes[q]]);
    }
  }
}

std::vector<UserQueryResult> GraphRecommenderBase::QueryBatch(
    std::span<const UserQuery> queries, const BatchOptions& options) const {
  std::vector<UserQueryResult> results(queries.size());
  if (queries.empty()) return results;
  // Phase A (sequential, O(Σ seed set) — cheap next to the walks): validate
  // every query, compute its seed set and group queries that walk one
  // subgraph: by component when it has a fit-time payload (the seeds do not
  // matter there, so the key drops them), otherwise by exact seed set (key
  // payload -1). Failures resolve here with the single-user calls'
  // statuses; empty queries keep their default OK result.
  using SubgraphKey = std::pair<int32_t, std::vector<NodeId>>;
  std::map<SubgraphKey, std::vector<size_t>> by_subgraph;
  {
    std::vector<NodeId> seeds;
    for (size_t i = 0; i < queries.size(); ++i) {
      const UserQuery& q = queries[i];
      if (q.top_k <= 0 && q.score_items.empty()) continue;
      results[i].status = QuerySeeds(q.user, &seeds);
      if (!results[i].status.ok()) continue;
      const int32_t payload = ComponentPayloadOf(seeds);
      if (payload >= 0) seeds.clear();
      by_subgraph[{payload, seeds}].push_back(i);
    }
  }
  // Phase B: split the groups into dispatch slices of at most 16 queries,
  // so one giant group (every warm query hitting one hot user's subgraph)
  // still spreads across pool workers; RunGroup re-chunks a slice further
  // if the probed per-subgraph lane cap is smaller. Exact members go one
  // per slice: their solve has no fused form, and its cost varies widely by
  // user (HT's can run to the sweep cap), so grain 1 keeps them balanced.
  const size_t slice_width = options_.exact ? 1 : 16;
  struct Slice {
    const SubgraphKey* key;
    std::span<const size_t> members;
  };
  std::vector<Slice> slices;
  for (const auto& [key, members] : by_subgraph) {
    for (size_t b = 0; b < members.size(); b += slice_width) {
      const size_t count = std::min(slice_width, members.size() - b);
      slices.push_back({&key, std::span(members).subspan(b, count)});
    }
  }
  ServingPool& pool =
      options.pool != nullptr ? *options.pool : ServingPool::Global();
  pool.ParallelFor(
      slices.size(),
      [&](size_t si) {
        const Slice& s = slices[si];
        RunGroup(queries, s.members, s.key->first, s.key->second, options,
                 &LocalWorkspace(), results.data());
      },
      options.num_threads, /*grain=*/1);
  return results;
}

}  // namespace longtail
