// Shared machinery for the paper's graph recommenders (HT, AT, AC1, AC2).
//
// Query flow (Algorithm 1): seed nodes → BFS subgraph capped at µ item
// nodes → truncated DP for τ iterations on the workspace's WalkKernel
// (the item-side ranking sweep; an exact linear solve when configured)
// → rank items by smallest time/cost. See docs/ARCHITECTURE.md for the
// full serving pipeline and docs/KERNELS.md for the kernel.
//
// Every query runs through one walk, RunGroup: a group of queries that
// share a subgraph resolves it once and sweeps its members as fused lanes.
// QueryBatch groups its queries and fans the groups out over the
// process-lifetime ServingPool; RecommendTopK and ScoreItems are a group
// of one on the calling thread. All query state lives in a WalkWorkspace
// pinned to each thread, so the walk performs no global-sized heap
// allocation in the steady state, and workspaces stay warm across
// batches. Batches can reuse extracted subgraphs through a shared
// SubgraphCache (BatchOptions::subgraph_cache).
//
// When µ cannot cap a user's subgraph (µ <= 0, or the user's connected
// component has at most µ items) the subgraph is the whole component,
// whatever the seeds. Such components are extracted once at Fit/LoadModel
// into shared payloads; their queries adopt the payload instead of
// extracting, skip the cache, and fuse with every other query of the
// component.
#ifndef LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_
#define LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "graph/bipartite_graph.h"
#include "graph/markov.h"
#include "graph/subgraph.h"

namespace longtail {

/// Options shared by all graph-walk recommenders.
struct GraphWalkOptions {
  /// τ: truncated-DP sweeps (paper default 15, §5.2.2).
  int iterations = 15;
  /// µ: BFS subgraph cap on item nodes (paper default 6000, §5.2.2).
  /// <= 0 disables the cap (whole reachable component).
  int32_t max_subgraph_items = 6000;
  /// Edge weight = rating (paper) vs 1.0 (ablation).
  bool weighted_edges = true;
  /// Replace the truncated DP with an exact Gauss–Seidel solve
  /// (tests/ablation; slower).
  bool exact = false;
  SolverOptions solver;
};

/// Base class implementing Fit/RecommendTopK/ScoreItems/QueryBatch on top
/// of three hooks: seed nodes, absorbing flags, and per-node costs. The
/// hooks write into caller-owned buffers so the batch engine can reuse them
/// across queries.
class GraphRecommenderBase : public Recommender {
 public:
  /// Builds the bipartite rating graph from `data` (edge weight = rating
  /// when options().weighted_edges), runs FitImpl, then builds the
  /// whole-component payloads. Must be called exactly once; `data` must
  /// outlive the recommender.
  Status Fit(const Dataset& data) override;

  /// Runs one walk for `user` and returns up to `k` unrated items ranked
  /// by smallest time/cost (ScoredItem::score is the negated walk value,
  /// so larger = better as everywhere else). Items outside the extracted
  /// subgraph or unreachable from the absorbing set are never returned;
  /// k <= 0 returns an empty list. FailedPrecondition for unfitted models
  /// and cold-start users, OutOfRange for unknown users.
  Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                int k) const override;

  /// Scores an explicit candidate list from one walk; aligned with
  /// `items`. Candidates outside the subgraph (or unreachable) get
  /// kUnreachableScore; out-of-range ids fail with OutOfRange.
  Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override;

  /// Batch engine: queries that walk one subgraph are grouped and served by
  /// ONE fused multi-query sweep — every query in a component with a
  /// fit-time payload (whatever its seeds), otherwise queries whose seed
  /// sets are identical (extraction being a pure function of (graph,
  /// seeds, µ)). The shared subgraph is resolved once, each query compiles
  /// its own absorbing lane, and a single CSR pass per truncated iteration
  /// advances all lanes (SpMV → SpMM; see docs/KERNELS.md). Groups fan
  /// out on the long-lived ServingPool in slices of at most 16 queries,
  /// with one pinned WalkWorkspace per worker thread. Exact-solver walkers
  /// group the same way but dispatch one query per slice: the exact solve
  /// has no fused form and its cost varies widely by user.
  /// Results are bit-identical to the single-user calls at any thread
  /// count, with or without a subgraph cache.
  std::vector<UserQueryResult> QueryBatch(
      std::span<const UserQuery> queries,
      const BatchOptions& options = {}) const override;

  /// Persists the fitted walker: walk options + the bipartite graph, plus
  /// whatever SaveExtraChunks appends (AC entropies, AC2's LDA tables).
  Status SaveModel(CheckpointWriter& writer) const override;

  /// Restores a walker saved by SaveModel; serves bit-identically to the
  /// fitted original without refitting. Component payloads are not
  /// persisted: they are rebuilt from the loaded graph.
  Status LoadModel(CheckpointReader& reader, const Dataset& data) override;

  /// The walk configuration this recommender was constructed (or
  /// checkpoint-restored) with.
  const GraphWalkOptions& options() const { return options_; }
  /// The fitted global rating graph; valid only after Fit/LoadModel.
  const BipartiteGraph& graph() const { return graph_; }

 protected:
  explicit GraphRecommenderBase(GraphWalkOptions options)
      : options_(options) {}

  /// Extra training after the graph is built (entropies, LDA). Default none.
  virtual Status FitImpl() { return Status::OK(); }

  /// Appends the global node ids seeding the BFS subgraph for this query
  /// to `*seeds` (cleared by the caller).
  virtual Status SeedNodes(UserId user, std::vector<NodeId>* seeds) const = 0;

  /// Writes local absorbing flags on the extracted subgraph into
  /// `*absorbing` (resized to the subgraph's node count, indexed by local
  /// node id). The walk pins absorbing nodes at value exactly 0; rankings
  /// order the remaining items by how fast the walk reaches this set.
  virtual void AbsorbingFlags(const Subgraph& sub, UserId user,
                              std::vector<bool>* absorbing) const = 0;

  /// Writes local per-node immediate costs into `*costs` (resized to the
  /// subgraph's node count): the cost a walker pays per step leaving each
  /// node. Default unit cost — values become expected steps (absorbing
  /// *time*); AC1/AC2 override with the Eq. 9 entropy costs (absorbing
  /// *cost*). Entries for absorbing nodes are ignored.
  virtual void NodeCosts(const Subgraph& sub,
                         std::vector<double>* costs) const;

  /// Appends subclass checkpoint chunks after the shared walker chunks.
  virtual Status SaveExtraChunks(CheckpointWriter& writer) const;

  /// Offers a chunk the base loader does not recognise to the subclass;
  /// sets `*handled` when consumed. Unhandled chunks are skipped (forward
  /// compatibility).
  virtual Status LoadExtraChunk(ChunkReader& chunk, bool* handled);

  /// Validates subclass state (filled in by LoadExtraChunk) once the whole
  /// chunk stream is consumed. Runs *before* the base commits options_,
  /// graph_ and data_, so a failure leaves the object unfitted and a
  /// fallback Fit() still works; validate against `data`, not data_.
  virtual Status FinishLoad(const Dataset& data);

  BipartiteGraph graph_;
  GraphWalkOptions options_;

 private:
  /// Builds one shared payload (DetachSharedSubgraph) per connected
  /// component of graph_ whose µ cap cannot fire — every component when
  /// µ <= 0, otherwise those with at most µ items — and indexes each node's
  /// payload. O(V + E); runs at the end of Fit and LoadModel. Builds
  /// nothing when µ binds on every component.
  void BuildComponentPayloads();
  /// Index into component_payloads_ of the component holding every seed;
  /// -1 when it has no payload or the seeds span components.
  int32_t ComponentPayloadOf(const std::vector<NodeId>& seeds) const;
  /// Validates a query for `user` and writes its non-empty seed set into
  /// `*seeds`: FailedPrecondition for an unfitted model or a cold-start
  /// user, OutOfRange for an unknown one. Both the single-user calls and
  /// QueryBatch validate here.
  Status QuerySeeds(UserId user, std::vector<NodeId>* seeds) const;
  /// Installs a group's subgraph into ws->sub(): component payload
  /// `payload` when >= 0 (`seeds` and the cache are not consulted), else
  /// the extraction from `seeds` — adopted from `cache` on a hit, extracted
  /// and inserted on a miss (nullptr disables caching).
  void ResolveSubgraph(int32_t payload, const std::vector<NodeId>& seeds,
                       WalkWorkspace* ws, SubgraphCache* cache) const;
  /// The one walk (Algorithm 1). Serves the queries `members` index, which
  /// all walk one subgraph (ResolveSubgraph's `payload` and `seeds`):
  /// resolves it and its node costs once, then per member either solves
  /// exactly (options_.exact) or sweeps τ truncated iterations — alone, or
  /// as fused lanes in chunks of at most WalkKernel::FusedWidthCap. Fused
  /// lanes are bit-identical to lone sweeps. Callers guarantee that every
  /// member passed QuerySeeds and requests something; `seeds` may alias
  /// ws->seeds.
  void RunGroup(std::span<const UserQuery> queries,
                std::span<const size_t> members, int32_t payload,
                const std::vector<NodeId>& seeds, const BatchOptions& options,
                WalkWorkspace* ws, UserQueryResult* results) const;
  /// A single-user call: QuerySeeds, then RunGroup with one member on the
  /// calling thread's workspace, without a pool or a cache.
  UserQueryResult QueryOne(const UserQuery& query) const;
  /// Serves the top-k and scoring halves of `query` from the walk values
  /// in `ws`. Item rows of ws.values must be valid; non-finite values
  /// mean unreachable.
  void ServeFromWalk(const UserQuery& query, const WalkWorkspace& ws,
                     UserQueryResult* out) const;
  std::vector<ScoredItem> TopKFromWalk(UserId user, int k,
                                       const WalkWorkspace& ws) const;
  Result<std::vector<double>> ScoresFromWalk(std::span<const ItemId> items,
                                             const WalkWorkspace& ws) const;

  /// Whole-component payloads, immutable after BuildComponentPayloads.
  std::vector<std::shared_ptr<const Subgraph>> component_payloads_;
  /// Per global node: its component's index into component_payloads_, or
  /// -1. Empty when there are no payloads.
  std::vector<int32_t> node_payload_;
};

}  // namespace longtail

#endif  // LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_
