// The recommender interface shared by the paper's algorithms (HT, AT, AC1,
// AC2) and every baseline (LDA, PureSVD, PPR, DPPR, popularity, item-kNN).
//
// Two query shapes are needed by the paper's evaluation:
//  * RecommendTopK — top-k unrated items for a user (Figures 6, Tables 2-6).
//  * ScoreItems    — scores for an explicit candidate list (the Recall@N
//                    protocol of §5.2.1 ranks 1 test item among 1000 decoys).
// Scores are "higher is better"; graph methods return negated times/costs.
#ifndef LONGTAIL_CORE_RECOMMENDER_H_
#define LONGTAIL_CORE_RECOMMENDER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/dataset.h"
#include "util/status.h"

namespace longtail {

class CheckpointReader;
class CheckpointWriter;
class ChunkReader;
class ChunkWriter;
class ServingPool;
class SubgraphCache;

/// Chunk tags of the built-in model-checkpoint format (the chunked
/// container of data/serialization.h; files are written/read through
/// serving/model_registry.h). Tag 0 is reserved for the container's end
/// marker. Loaders skip tags they do not know — forward compatibility —
/// so a tag, once shipped, must never be repurposed; new chunk kinds take
/// fresh values.
enum CheckpointChunkTag : uint32_t {
  kChunkModelHeader = 1,       // algorithm name + fitted dataset shape
  kChunkGraphWalkOptions = 2,  // GraphWalkOptions + SolverOptions
  kChunkBipartiteGraph = 3,    // CSR adjacency of the fitted rating graph
  kChunkUserEntropy = 4,       // AC1/AC2 per-user entropies + resolved C
  kChunkLdaModel = 5,          // θ and φ tables (AC2, LDA baseline)
  kChunkSvdFactors = 6,        // PureSVD item-factor matrix
  kChunkKnnNeighbors = 7,      // ItemKNN per-item neighbour lists
  kChunkKatzOptions = 8,       // Katz attenuation/truncation parameters
  kChunkPageRankOptions = 9,   // (D)PPR damping/restart configuration
};

/// Version written for every built-in chunk. A loader rejects a *known*
/// tag carrying a higher version (it cannot interpret the payload), while
/// unknown tags are skipped entirely; bump this only with a loader that
/// still accepts every older version.
inline constexpr uint32_t kCheckpointChunkVersion = 1;

/// Score assigned to candidates that a recommender cannot reach or rank
/// (e.g. items outside the BFS subgraph). Ranks below every real score.
inline constexpr double kUnreachableScore = -1e300;

/// Options for the batch query engine.
struct BatchOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = the calling thread only.
  size_t num_threads = 0;
  /// Pool the batch fans out on; nullptr = the process-lifetime
  /// ServingPool::Global(). Batches never spawn threads of their own.
  ServingPool* pool = nullptr;
  /// Optional shared cache of extracted walk subgraphs. Graph recommenders
  /// consult it per query whose µ cap can fire (whole-component walks use
  /// the model's own payload instead); results are bit-identical with and
  /// without it (tests/subgraph_cache_test.cc). Other recommenders ignore
  /// it. The cache may be shared across recommenders and concurrent
  /// batches.
  SubgraphCache* subgraph_cache = nullptr;
  /// Optional observer invoked once per dispatched truncated sweep with its
  /// width: the number of queries that shared one subgraph and advanced as
  /// interleaved lanes of one CSR pass (1 for queries that found no
  /// partner). May be called concurrently from pool workers; the
  /// ServingEngine points this at its longtail_engine_fused_width
  /// histogram. Not called for exact-solver walkers or by non-graph
  /// recommenders.
  const std::function<void(int32_t width)>* fused_width_observer = nullptr;
};

/// One user's request in a batch: top-k recommendations, scores for an
/// explicit candidate list, or both. Graph recommenders serve both halves
/// from a single subgraph walk instead of recomputing it per call.
struct UserQuery {
  UserId user = 0;
  /// > 0 → fill UserQueryResult::top_k with up to this many items.
  int top_k = 0;
  /// Non-empty → fill UserQueryResult::scores, aligned with this span. The
  /// referenced storage must outlive the QueryBatch call.
  std::span<const ItemId> score_items;
};

/// Per-query outcome. A failed query (cold-start user, bad candidate id)
/// carries its error here without failing the rest of the batch.
struct UserQueryResult {
  Status status;
  std::vector<ScoredItem> top_k;
  std::vector<double> scores;
};

/// Abstract recommender. Implementations are immutable after Fit and safe
/// for concurrent queries from multiple threads.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Short identifier used in reports ("AC2", "PureSVD", ...).
  virtual std::string name() const = 0;

  /// Trains on the dataset. Must be called exactly once before querying.
  /// The dataset must outlive the recommender.
  virtual Status Fit(const Dataset& data) = 0;

  /// Serializes the fitted model as checkpoint chunks (the container magic,
  /// header chunk and end marker are the registry's job — see
  /// serving/model_registry.h). Implementations may only be called after
  /// Fit. Default: Unimplemented.
  virtual Status SaveModel(CheckpointWriter& writer) const;

  /// Restores a model written by SaveModel into this *unfitted* instance,
  /// consuming the reader's remaining chunks (unknown tags are skipped).
  /// `data` must be the dataset the model was fitted on and must outlive
  /// the recommender, exactly as with Fit; afterwards the object answers
  /// every query bit-identically to the instance that was saved, without
  /// Fit ever running. Default: Unimplemented.
  virtual Status LoadModel(CheckpointReader& reader, const Dataset& data);

  /// The dataset bound by Fit or LoadModel (nullptr before either).
  const Dataset* dataset() const { return data_; }

  /// Returns up to k items not rated by `user`, best first.
  virtual Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                        int k) const = 0;

  /// Returns one score per candidate item (aligned with `items`).
  virtual Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const = 0;

  /// Serves a batch of queries; results align with `queries`. The default
  /// loops over the per-user virtuals (parallelised across the batch when
  /// `options.num_threads != 1`, which the thread-safe-query contract
  /// permits). GraphRecommenderBase overrides this with one fused walk per
  /// group of queries that share a subgraph, on per-worker workspaces.
  virtual std::vector<UserQueryResult> QueryBatch(
      std::span<const UserQuery> queries,
      const BatchOptions& options = {}) const;

  /// Batch RecommendTopK: top-k lists for many users, aligned with `users`.
  std::vector<Result<std::vector<ScoredItem>>> RecommendBatch(
      std::span<const UserId> users, int k,
      const BatchOptions& options = {}) const;

  /// Batch ScoreItems: `items_per_user[i]` is scored for `users[i]`.
  std::vector<Result<std::vector<double>>> ScoreBatch(
      std::span<const UserId> users,
      std::span<const std::vector<ItemId>> items_per_user,
      const BatchOptions& options = {}) const;

 protected:
  /// The training/serving dataset, set by Fit and LoadModel
  /// implementations. Shared here because every recommender needs it for
  /// rated-item filtering and query validation.
  const Dataset* data_ = nullptr;
};

/// Sorts candidates by (score desc, item id asc) and keeps the best k.
std::vector<ScoredItem> TopKScoredItems(std::vector<ScoredItem> candidates,
                                        int k);

/// Validates that `user` is in range and `data` is fitted; shared by
/// implementations.
Status CheckQueryUser(const Dataset* data, UserId user);

}  // namespace longtail

#endif  // LONGTAIL_CORE_RECOMMENDER_H_
