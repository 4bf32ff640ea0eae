// Sharded, thread-safe LRU cache of extracted walk subgraphs, with
// single-flight coalescing of concurrent identical misses.
//
// The paper's graph recommenders (HT, AT, AC1, AC2) extract a µ-capped BFS
// subgraph per query. Queries with the same seed set — the same user asked
// again, or AT/AC1/AC2 fitted on one dataset serving the same user —
// rebuild byte-identical induced CSRs. The cache keys an entry by the exact
// extraction inputs (graph fingerprint, seed sequence, µ) and stores an
// immutable payload holding everything a query needs: the extracted
// subgraph, its WalkPlan (built exactly once at admission) and a compact
// global→local node index. A hit installs the payload into the caller's
// WalkWorkspace via WalkWorkspace::AdoptSharedSubgraph — a single
// shared_ptr store, zero O(E)/O(V) work; the query then compiles + sweeps
// against the shared plan with private scratch. Results are bit-identical
// to a fresh extraction (enforced by tests/subgraph_cache_test.cc and
// tests/warm_plan_test.cc).
//
// Single flight: GetOrExtract is the serving path's front door. The first
// thread to miss a key becomes the *leader* — it registers an in-flight
// ticket, extracts, publishes, and inserts. Threads that miss the same key
// while the ticket is open block on it and adopt the leader's published
// payload instead of racing a duplicate extraction: N identical concurrent
// cold queries perform exactly one extraction (the ROADMAP admission-control
// item; proven by tests/subgraph_cache_test.cc and the engine tests).
//
// Concurrency: the key space is split across power-of-two shards, each a
// mutex-protected LRU list + index + in-flight table. Payloads are
// immutable and shared_ptr owned, so a reader copying an entry into its
// workspace never races an eviction — the shard lock covers only
// list/index/ticket surgery and pointer grabs; waiters block on the
// ticket's own condition variable, never on the shard. Stats counters are
// atomics, so Stats() snapshots do not serialize the serving path.
// Collision safety does not rest on the 64-bit key: entries and tickets
// store the full identity (fingerprint, seeds, µ) and a lookup that hashes
// alike but differs in identity is a miss.
#ifndef LONGTAIL_GRAPH_SUBGRAPH_CACHE_H_
#define LONGTAIL_GRAPH_SUBGRAPH_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/subgraph.h"

namespace longtail {

struct SubgraphCacheOptions {
  /// Maximum cached subgraphs across all shards (split evenly; each shard
  /// holds at least one). <= 0 entries would make every insert bounce, so
  /// the count is clamped to >= num_shards.
  size_t max_entries = 4096;
  /// Concurrency shards; rounded up to a power of two.
  size_t num_shards = 16;
  /// Optional resident-payload byte budget across all shards (0 = entry
  /// count only). Evicts LRU entries while a shard exceeds its slice.
  size_t max_bytes = 0;
};

struct SubgraphCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  /// Requests that found an identical extraction already in flight and
  /// adopted the leader's result instead of extracting (single-flight
  /// coalescing). Counted when the waiter starts waiting; every coalesced
  /// wait is one duplicate extraction avoided.
  uint64_t coalesced_waits = 0;
  size_t entries = 0;
  size_t resident_bytes = 0;
  /// Slice of resident_bytes owned by admission-built plan structures (the
  /// WalkPlan's materialized values plus the payload node index), reported
  /// separately so the cost of the zero-copy warm path stays visible.
  size_t plan_resident_bytes = 0;

  /// hits / (hits + misses): coalesced waits are neither (they are
  /// de-duplicated misses) and are reported via CoalescedRate().
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
  /// Fraction of cold lookups (misses + coalesced waits) that were
  /// absorbed by an in-flight extraction instead of extracting again.
  double CoalescedRate() const {
    const uint64_t cold = misses + coalesced_waits;
    return cold > 0 ? static_cast<double>(coalesced_waits) / cold : 0.0;
  }
};

class MetricsRegistry;

class SubgraphCache {
 public:
  explicit SubgraphCache(SubgraphCacheOptions options = {});
  ~SubgraphCache();

  SubgraphCache(const SubgraphCache&) = delete;
  SubgraphCache& operator=(const SubgraphCache&) = delete;

  /// Exports the cache's counters into `registry` as callback series
  /// (longtail_subgraph_cache_*: hit/miss/insert/eviction/coalesced-wait
  /// totals, plus entries, resident-bytes and plan-resident-bytes
  /// gauges), sampled from the
  /// shard atomics at scrape time — no new work on the lookup path. The
  /// registry must outlive the cache or BindMetrics(nullptr) must be
  /// called first; the destructor releases the callbacks itself. Beware
  /// binding to a ServingEngine's *owned* registry (options.metrics ==
  /// nullptr): that registry dies with the engine, and a cache shared via
  /// ServingEngineOptions::subgraph_cache necessarily outlives it — use an
  /// external registry or unbind before the engine is destroyed.
  void BindMetrics(MetricsRegistry* registry);

  /// Hash of the extraction inputs. Deterministic across processes for a
  /// given dataset (the fingerprint is a content hash).
  static uint64_t Key(uint64_t graph_fingerprint,
                      std::span<const NodeId> seeds,
                      const SubgraphOptions& options);

  /// The serving path's front door: ends with the subgraph induced by
  /// (`g`, `seeds`, `options`) installed in `*ws`, bit-identical to a
  /// direct ExtractSubgraphInto. Hit → adopt the cached payload. Miss with
  /// no identical extraction in flight → this caller extracts (leader),
  /// publishes, and inserts. Miss while an identical extraction is in
  /// flight → block until the leader publishes and adopt its payload
  /// (counted as a coalesced wait). Safe for any number of concurrent
  /// callers; distinct keys never wait on each other.
  void GetOrExtract(const BipartiteGraph& g, const std::vector<NodeId>& seeds,
                    const SubgraphOptions& options, WalkWorkspace* ws);

  /// On hit, installs the cached payload into `*ws` (zero-copy
  /// AdoptSharedSubgraph) and refreshes the entry's recency. `g`, `seeds`
  /// and `options` must be the inputs `key` was computed from; they double
  /// as the collision check. Does not consult the in-flight table — use
  /// GetOrExtract for coalescing.
  bool Lookup(uint64_t key, const BipartiteGraph& g,
              std::span<const NodeId> seeds, const SubgraphOptions& options,
              WalkWorkspace* ws);

  /// Caches a copy of `ws.sub()` (the subgraph extracted from `seeds`)
  /// under `key`, evicting least-recently-used entries beyond the budget.
  /// Inserting a key that raced in from another thread refreshes recency
  /// and keeps the resident payload (the two copies are identical).
  void Insert(uint64_t key, uint64_t graph_fingerprint,
              std::span<const NodeId> seeds, const SubgraphOptions& options,
              const WalkWorkspace& ws);

  /// Aggregated over shards; counters are cumulative since construction or
  /// the last Clear(). Counter reads are atomic and do not block lookups;
  /// entries/resident_bytes take each shard lock briefly.
  SubgraphCacheStats Stats() const;

  /// Drops every entry and zeroes the counters. In-flight extractions are
  /// unaffected (their tickets complete and insert normally).
  void Clear();

  size_t num_shards() const { return shards_.size(); }

  /// Test-only: invoked by a GetOrExtract *leader* after its in-flight
  /// ticket is registered and before extraction begins. Lets tests hold
  /// the leader open until a chosen number of waiters have coalesced
  /// behind it. Not for production use; calls must not re-enter the cache.
  void SetLeaderExtractHookForTesting(std::function<void()> hook) {
    leader_extract_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t fingerprint = 0;
    int32_t max_items = 0;
    std::vector<NodeId> seeds;
    std::shared_ptr<const Subgraph> sub;
    size_t bytes = 0;
    /// Slice of `bytes` owned by the plan + node index (metrics only).
    size_t plan_bytes = 0;
  };

  /// One open extraction. Waiters block on `cv` until the leader publishes
  /// `sub` (or abandons, which sends them to extract for themselves).
  struct FlightTicket {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const Subgraph> sub;  // null when abandoned
    // Full identity, so a hash-colliding key never adopts a stranger.
    uint64_t fingerprint = 0;
    int32_t max_items = 0;
    std::vector<NodeId> seeds;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    /// Open extractions keyed like the index; erased on publish/abandon.
    std::unordered_map<uint64_t, std::shared_ptr<FlightTicket>> inflight;
    size_t bytes = 0;
    size_t plan_bytes = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> coalesced_waits{0};
  };

  Shard& ShardFor(uint64_t key) {
    // Keys are finalizer-mixed, so the low bits are uniform at any shard
    // count.
    return *shards_[key & shard_mask_];
  }
  static bool Matches(const Entry& e, uint64_t fingerprint,
                      std::span<const NodeId> seeds, int32_t max_items);
  /// Detaches a self-contained copy of the workspace's current subgraph
  /// (the payload format entries and tickets share) and finishes it for
  /// zero-copy adoption: builds its row-stochastic WalkPlan (bound to the
  /// payload's own graph) and the compact global→local node index. This is
  /// the *only* place plans are built for cached subgraphs — every adopter
  /// shares this one.
  static std::shared_ptr<const Subgraph> DetachPayload(
      const WalkWorkspace& ws);
  /// Inserts `sub` under `key`, refreshing recency if an identical entry
  /// raced in. Takes the shard lock itself.
  void InsertPayload(uint64_t key, uint64_t graph_fingerprint,
                     std::span<const NodeId> seeds,
                     const SubgraphOptions& options,
                     std::shared_ptr<const Subgraph> sub);
  /// Insert body; caller holds the shard mutex.
  void InsertPayloadLocked(Shard* shard, uint64_t key,
                           uint64_t graph_fingerprint,
                           std::span<const NodeId> seeds,
                           const SubgraphOptions& options,
                           std::shared_ptr<const Subgraph> sub);
  /// Evicts from the back of `shard` until it fits both budgets. Caller
  /// holds the shard mutex.
  void EvictOverflow(Shard* shard);

  size_t max_per_shard_ = 0;
  size_t max_bytes_per_shard_ = 0;
  uint64_t shard_mask_ = 0;
  /// unique_ptr because Shard (mutex) is immovable and the count is a
  /// runtime option.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void()> leader_extract_hook_;
  /// Registry currently holding this cache's callback series (see
  /// BindMetrics); null when unbound.
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_SUBGRAPH_CACHE_H_
