// BFS subgraph extraction (Algorithm 1 step 2).
//
// Starting from a seed set (typically the query user's rated items S_q, plus
// the query user), breadth-first search expands level by level and stops
// once the number of *item* nodes exceeds µ. The induced subgraph keeps all
// edges between visited nodes, and the mapping back to global ids is
// retained so results can be reported in dataset coordinates.
//
// Two ways a workspace comes to hold a subgraph:
//  * ExtractSubgraphInto — writes into a caller-owned WalkWorkspace. The
//    global-sized lookup tables are allocated once per workspace and
//    invalidated between queries in O(1) via an epoch stamp, so the steady
//    state performs zero global-sized heap allocation per query.
//  * AdoptSharedSubgraph — the zero-copy warm path: the workspace takes a
//    shared_ptr to an immutable payload (graph + id lists + WalkPlan +
//    SubgraphNodeIndex, all built once by DetachSharedSubgraph, either at
//    SubgraphCache admission or at a recommender's Fit/LoadModel for a
//    whole component) and performs no per-query work at all — no graph
//    copy, no table rebuild, no transition build. Queries answer id lookups
//    from the payload's compact node index and sweep the payload's plan.
//
// Ordering contract: when the BFS drains without the µ cap firing (µ <= 0,
// or the reached components hold <= µ items) the subgraph is the union of
// the seeds' components, and local ids follow ascending global ids — users
// ascending, then items ascending. The induced CSR is then the same for
// every seed set in those components. A truncated (capped) extraction keeps
// BFS visit order.
#ifndef LONGTAIL_GRAPH_SUBGRAPH_H_
#define LONGTAIL_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/walk_kernel.h"
#include "linalg/solvers.h"

namespace longtail {

class WalkWorkspace;
struct Subgraph;
struct SubgraphOptions;

/// Compact global→local node index carried by cache payloads: an
/// open-addressing hash over the subgraph's global node ids, sized
/// O(subgraph nodes) — not O(global nodes), so thousands of cached entries
/// stay cheap — and immutable after Build. It answers the same
/// LocalUserNode/LocalItemNode queries the workspace's epoch-stamped
/// tables do, which is what lets a cache hit skip the O(V) stamp rebuild
/// entirely.
class SubgraphNodeIndex {
 public:
  /// Indexes `sub`'s users/items under the global id space
  /// [0, num_global_users) × [0, num_global_items). O(subgraph nodes).
  void Build(int32_t num_global_users, int32_t num_global_items,
             const Subgraph& sub);
  void Clear();
  bool built() const { return built_; }

  /// Local *node* id of a global node/user/item; -1 when absent or out of
  /// range. O(1) expected (the table is kept at most half full).
  NodeId LocalNode(NodeId global_node) const;
  NodeId LocalUser(UserId global_user) const;
  NodeId LocalItem(ItemId global_item) const;

  /// Heap bytes the index owns; counted into cache payload budgets.
  size_t bytes() const {
    return (key_.capacity() + value_.capacity()) * sizeof(NodeId);
  }

 private:
  bool built_ = false;
  int32_t num_global_users_ = 0;
  int32_t num_global_items_ = 0;
  uint32_t mask_ = 0;
  /// Open-addressing slots: global node id (-1 empty) → local node id.
  std::vector<NodeId> key_;
  std::vector<NodeId> value_;
};

/// An induced subgraph with local⇄global node mappings. Local node ids
/// follow the same convention (users first, then items). Move-only: a
/// workspace's subgraph is a view answering lookups from the workspace's
/// tables, so a copy would silently follow the workspace's next extraction.
struct Subgraph {
  Subgraph() = default;
  Subgraph(const Subgraph&) = delete;
  Subgraph& operator=(const Subgraph&) = delete;
  Subgraph(Subgraph&&) = default;
  Subgraph& operator=(Subgraph&&) = default;

  BipartiteGraph graph;
  /// local user id → global UserId.
  std::vector<UserId> users;
  /// local item id → global ItemId.
  std::vector<ItemId> items;
  /// Always null. Kept only so bench/e2e/e2e_trace.h, which passes it to
  /// WalkKernel::BuildTransitions, still compiles.
  std::shared_ptr<const WalkLayout> layout;
  /// The immutable row-stochastic walk plan for `graph`, built once by
  /// DetachSharedSubgraph. Non-null only on shared payloads; adopters
  /// bind to it via WalkKernel::AdoptPlan instead of running
  /// BuildTransitions. The plan points into this Subgraph's own graph, so
  /// it is only valid while the payload is alive — holders must keep the
  /// payload shared_ptr, which is exactly what AdoptSharedSubgraph does.
  std::shared_ptr<const WalkPlan> plan;
  /// Compact global→local index, built alongside `plan`. Empty on fresh
  /// extractions (the workspace's stamped tables answer lookups there).
  SubgraphNodeIndex node_index;

  /// Local *node* id (not local user/item index) of a global user/item:
  /// users map to [0, users.size()), items to [users.size(),
  /// num_nodes()). Returns -1 when the global id is absent from the
  /// subgraph or out of range; never aborts. O(1) either way (the backing
  /// workspace's epoch-stamped tables, or the payload node index).
  NodeId LocalUserNode(UserId global_user) const;
  NodeId LocalItemNode(ItemId global_item) const;

 private:
  friend Subgraph& ExtractSubgraphInto(const BipartiteGraph& g,
                                       const std::vector<NodeId>& seed_nodes,
                                       const SubgraphOptions& options,
                                       WalkWorkspace* workspace);
  /// Set by ExtractSubgraphInto; a workspace-backed subgraph is a view that
  /// stays valid only until the workspace's next extraction.
  const WalkWorkspace* workspace_ = nullptr;
};

struct SubgraphOptions {
  /// Stop BFS expansion once the subgraph holds more than this many item
  /// nodes (µ in the paper; default 6000 per §5.2.2). <= 0 means no cap —
  /// the subgraph becomes the reachable component.
  int32_t max_items = 6000;
};

/// Reusable per-thread buffers for Algorithm 1's per-query walk. One
/// workspace serves any number of sequential queries, against any graphs;
/// buffers are sized on first use (or graph change) and keep their capacity
/// afterwards. Not thread-safe: use one workspace per worker thread.
class WalkWorkspace {
 public:
  WalkWorkspace() = default;
  WalkWorkspace(const WalkWorkspace&) = delete;
  WalkWorkspace& operator=(const WalkWorkspace&) = delete;

  /// The current subgraph: the shared payload after AdoptSharedSubgraph,
  /// otherwise the workspace-owned subgraph of the most recent
  /// ExtractSubgraphInto call.
  const Subgraph& sub() const {
    return shared_sub_ != nullptr ? *shared_sub_ : sub_;
  }

  /// Zero-copy adoption of an immutable DetachSharedSubgraph payload:
  /// stores the shared_ptr — keeping the payload's graph, plan and node
  /// index alive — and nothing else. No O(E) graph copy, no O(V) table
  /// rebuild; id lookups answer from the payload's node index (which must
  /// be built, checked). This is the warm serving path.
  void AdoptSharedSubgraph(std::shared_ptr<const Subgraph> src);

  /// Local node id of a global node in the current subgraph; -1 if absent
  /// or out of range. Valid only for the most recent extraction/adoption
  /// (earlier queries' mappings are invalidated by the epoch stamp; a
  /// shared payload answers from its own immutable index).
  NodeId LocalNode(NodeId global_node) const {
    if (shared_sub_ != nullptr) {
      return shared_sub_->node_index.LocalNode(global_node);
    }
    if (global_node < 0 ||
        static_cast<size_t>(global_node) >= stamp_.size() ||
        stamp_[global_node] != epoch_) {
      return -1;
    }
    return local_id_[global_node];
  }
  NodeId LocalUser(UserId global_user) const {
    if (shared_sub_ != nullptr) {
      return shared_sub_->node_index.LocalUser(global_user);
    }
    if (global_user < 0 || global_user >= num_global_users_) return -1;
    return LocalNode(global_user);
  }
  NodeId LocalItem(ItemId global_item) const {
    if (shared_sub_ != nullptr) {
      return shared_sub_->node_index.LocalItem(global_item);
    }
    if (global_item < 0 || global_item >= num_global_items_) return -1;
    return LocalNode(num_global_users_ + global_item);
  }

  /// Global graph dimensions of the most recent BeginQuery; the cache uses
  /// these to build payload node indexes without re-threading the global
  /// graph through every call.
  int32_t num_global_users() const { return num_global_users_; }
  int32_t num_global_items() const { return num_global_items_; }

  // Scratch threaded down the stack by the batch query engine: the DP value
  // sweeps, absorbing flags, node costs and solver temporaries all reuse
  // these buffers across queries.
  std::vector<NodeId> seeds;
  std::vector<bool> absorbing;
  std::vector<double> node_costs;
  std::vector<double> values;
  /// Fused multi-query scratch: one absorbing vector per fused lane, and
  /// the K-strided value block SweepTruncatedItemValuesBatch fills (lane q
  /// of node v at values_block[v·K + q]).
  std::vector<std::vector<bool>> batch_absorbing;
  std::vector<double> values_block;
  SolverScratch solver;
  /// The walk kernel serving this workspace's truncated sweeps: per-query
  /// compile/value scratch plus a plan binding — its own rebuilt plan on
  /// the cold ExtractSubgraphInto path, the payload's shared plan on the
  /// warm AdoptSharedSubgraph path — with capacity kept across queries
  /// like every other buffer here.
  WalkKernel kernel;

 private:
  friend Subgraph& ExtractSubgraphInto(const BipartiteGraph& g,
                                       const std::vector<NodeId>& seed_nodes,
                                       const SubgraphOptions& options,
                                       WalkWorkspace* workspace);

  /// Sizes the lookup tables for `g`, invalidates the previous query's
  /// mappings in O(1) by bumping the epoch, and releases any adopted
  /// shared payload.
  void BeginQuery(const BipartiteGraph& g);

  uint32_t epoch_ = 0;
  int32_t num_global_users_ = 0;
  int32_t num_global_items_ = 0;
  /// Per global node: local node id, valid iff stamp_ matches epoch_.
  std::vector<uint32_t> stamp_;
  std::vector<int32_t> local_id_;
  /// BFS visit order; doubles as the FIFO frontier.
  std::vector<NodeId> order_;
  /// Induced per-local-node degree counts.
  std::vector<int32_t> degrees_;
  Subgraph sub_;
  /// Adopted cache payload; when set, sub()/LocalNode answer from it.
  std::shared_ptr<const Subgraph> shared_sub_;
};

/// Extracts the BFS-induced subgraph around `seed_nodes` (global node
/// ids; every entry must be in [0, g.num_nodes()), checked) into
/// `workspace`, whose lookup tables and buffers are reused across calls.
/// Seeds are always included; an empty seed set yields an empty subgraph.
/// Expansion is level-by-level; the level that crosses the µ cap is
/// truncated mid-level in insertion order, which keeps the item count
/// within [µ, µ + level width). Every non-seed node enters via an edge, so
/// the induced graph has no isolated non-seed nodes. Local ids follow the
/// ordering contract in the file comment. The returned reference is
/// invalidated by the next call on the same workspace.
Subgraph& ExtractSubgraphInto(const BipartiteGraph& g,
                              const std::vector<NodeId>& seed_nodes,
                              const SubgraphOptions& options,
                              WalkWorkspace* workspace);

/// The one payload builder: a self-contained, immutable copy of `ws.sub()`
/// finished for zero-copy adoption — compacted CSR, its row-stochastic
/// WalkPlan (bound to the copy's own graph) and the compact global→local
/// node index. SubgraphCache admission and the graph recommenders'
/// whole-component payloads both use it; every adopter shares the result.
std::shared_ptr<const Subgraph> DetachSharedSubgraph(const WalkWorkspace& ws);

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_SUBGRAPH_H_
