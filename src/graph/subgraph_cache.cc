#include "graph/subgraph_cache.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"
#include "util/metrics.h"

namespace longtail {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Bytes of the admission-built plan structures: the WalkPlan's owned
/// storage (just the struct — row-stochastic plans normalize on the fly)
/// plus the compact node index. Reported as its own gauge so the memory
/// cost of the zero-copy warm path stays visible next to the CSR it
/// annotates.
size_t PlanBytes(const Subgraph& sub) {
  size_t bytes = sub.node_index.bytes();
  if (sub.plan != nullptr) bytes += sub.plan->OwnedBytes();
  return bytes;
}

/// Resident payload estimate: the CSR (adjacency + weights + row pointers +
/// weighted degrees) dominates; id maps, seeds and the plan + node index
/// ride along.
size_t PayloadBytes(const Subgraph& sub, size_t num_seeds) {
  const size_t nodes = static_cast<size_t>(sub.graph.num_nodes());
  const size_t entries = 2 * static_cast<size_t>(sub.graph.num_edges());
  size_t bytes = entries * (sizeof(NodeId) + sizeof(double)) +
                 nodes * (sizeof(int64_t) + sizeof(double)) +
                 sub.users.size() * sizeof(UserId) +
                 sub.items.size() * sizeof(ItemId) +
                 num_seeds * sizeof(NodeId) + 128;  // entry bookkeeping
  return bytes + PlanBytes(sub);
}

}  // namespace

SubgraphCache::SubgraphCache(SubgraphCacheOptions options) {
  const size_t num_shards = RoundUpPow2(std::max<size_t>(1, options.num_shards));
  shard_mask_ = num_shards - 1;
  const size_t max_entries = std::max(options.max_entries, num_shards);
  max_per_shard_ = std::max<size_t>(1, max_entries / num_shards);
  max_bytes_per_shard_ =
      options.max_bytes > 0
          ? std::max<size_t>(1, options.max_bytes / num_shards)
          : 0;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SubgraphCache::~SubgraphCache() { BindMetrics(nullptr); }

void SubgraphCache::BindMetrics(MetricsRegistry* registry) {
  if (metrics_ != nullptr) metrics_->ReleaseCallbacks(this);
  metrics_ = registry;
  if (registry == nullptr) return;
  // Counters sum the shard atomics at scrape time; entries/resident_bytes
  // go through Stats() (brief per-shard locks, same as any Stats() caller).
  struct Field {
    const char* name;
    const char* help;
    uint64_t SubgraphCacheStats::*member;
  };
  static constexpr Field kCounters[] = {
      {"longtail_subgraph_cache_hits_total", "Cache hits.",
       &SubgraphCacheStats::hits},
      {"longtail_subgraph_cache_misses_total", "Cache misses.",
       &SubgraphCacheStats::misses},
      {"longtail_subgraph_cache_inserts_total", "Entries inserted.",
       &SubgraphCacheStats::inserts},
      {"longtail_subgraph_cache_evictions_total", "Entries evicted (LRU).",
       &SubgraphCacheStats::evictions},
      {"longtail_subgraph_cache_coalesced_waits_total",
       "Duplicate extractions absorbed by single-flight coalescing.",
       &SubgraphCacheStats::coalesced_waits},
  };
  for (const Field& field : kCounters) {
    registry->RegisterCallbackCounter(
        field.name, field.help, {},
        [this, member = field.member] { return Stats().*member; }, this);
  }
  registry->RegisterCallbackGauge(
      "longtail_subgraph_cache_entries", "Resident cache entries.", {},
      [this] { return static_cast<double>(Stats().entries); }, this);
  registry->RegisterCallbackGauge(
      "longtail_subgraph_cache_resident_bytes",
      "Estimated bytes of resident payloads.", {},
      [this] { return static_cast<double>(Stats().resident_bytes); }, this);
  registry->RegisterCallbackGauge(
      "longtail_subgraph_cache_plan_resident_bytes",
      "Slice of resident payload bytes owned by admission-built walk plans "
      "and node indexes.",
      {}, [this] { return static_cast<double>(Stats().plan_resident_bytes); },
      this);
}

uint64_t SubgraphCache::Key(uint64_t graph_fingerprint,
                            std::span<const NodeId> seeds,
                            const SubgraphOptions& options) {
  uint64_t h = FnvHashBytes(&graph_fingerprint, sizeof(graph_fingerprint));
  h = FnvHashBytes(&options.max_items, sizeof(options.max_items), h);
  if (!seeds.empty()) {
    h = FnvHashBytes(seeds.data(), seeds.size() * sizeof(NodeId), h);
  }
  // Mix so both the low bits (shard selection) and the full value (index
  // key) are well distributed.
  return MixHash64(h);
}

bool SubgraphCache::Matches(const Entry& e, uint64_t fingerprint,
                            std::span<const NodeId> seeds,
                            int32_t max_items) {
  return e.fingerprint == fingerprint && e.max_items == max_items &&
         e.seeds.size() == seeds.size() &&
         std::equal(e.seeds.begin(), e.seeds.end(), seeds.begin());
}

std::shared_ptr<const Subgraph> SubgraphCache::DetachPayload(
    const WalkWorkspace& ws) {
  // Reverse-lookup tables stay empty: adopters answer global→local queries
  // from the compact node index built below.
  auto sub = std::make_shared<Subgraph>();
  sub->graph = ws.sub().graph.CompactCopy();
  sub->users = ws.sub().users;
  sub->items = ws.sub().items;
  // Admission-time plan build — the heart of the zero-copy warm path. The
  // plan binds the payload's *own* graph (it must: it points into its
  // arrays, and payload + plan live and die together), exactly as
  // BuildTransitions would, so adopters sweeping it are bit-identical to a
  // cold extraction. After this, no adopter ever runs BuildTransitions for
  // this subgraph again.
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(sub->graph, WalkNormalization::kRowStochastic);
  sub->plan = std::move(plan);
  sub->node_index.Build(ws.num_global_users(), ws.num_global_items(), *sub);
  return sub;
}

bool SubgraphCache::Lookup(uint64_t key, const BipartiteGraph& g,
                           std::span<const NodeId> seeds,
                           const SubgraphOptions& options,
                           WalkWorkspace* ws) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const Subgraph> sub;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end() ||
        !Matches(*it->second, g.fingerprint(), seeds, options.max_items)) {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    sub = it->second->sub;
  }
  // Zero-copy adoption outside the lock: the shared_ptr keeps the payload
  // alive even if this entry is evicted concurrently.
  ws->AdoptSharedSubgraph(std::move(sub));
  return true;
}

void SubgraphCache::GetOrExtract(const BipartiteGraph& g,
                                 const std::vector<NodeId>& seeds,
                                 const SubgraphOptions& options,
                                 WalkWorkspace* ws) {
  const uint64_t key = Key(g.fingerprint(), seeds, options);
  const uint64_t fingerprint = g.fingerprint();
  Shard& shard = ShardFor(key);
  // Abandonment (leader exits without publishing) sends waiters back here;
  // it cannot happen on the current extraction path, but the loop keeps the
  // contract airtight if extraction ever grows an early return.
  for (;;) {
    std::shared_ptr<const Subgraph> cached;
    std::shared_ptr<FlightTicket> ticket;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end() &&
          Matches(*it->second, fingerprint, seeds, options.max_items)) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        cached = it->second->sub;
      } else {
        auto fit = shard.inflight.find(key);
        if (fit != shard.inflight.end() &&
            fit->second->fingerprint == fingerprint &&
            fit->second->max_items == options.max_items &&
            fit->second->seeds.size() == seeds.size() &&
            std::equal(fit->second->seeds.begin(), fit->second->seeds.end(),
                       seeds.begin())) {
          // Identical extraction already running: coalesce behind it.
          ticket = fit->second;
          shard.coalesced_waits.fetch_add(1, std::memory_order_relaxed);
        } else if (fit != shard.inflight.end()) {
          // 64-bit key collision with a *different* in-flight identity:
          // bypass coalescing (waiting would adopt the wrong subgraph).
          shard.misses.fetch_add(1, std::memory_order_relaxed);
        } else {
          ticket = std::make_shared<FlightTicket>();
          ticket->fingerprint = fingerprint;
          ticket->max_items = options.max_items;
          ticket->seeds = seeds;
          shard.inflight[key] = ticket;
          shard.misses.fetch_add(1, std::memory_order_relaxed);
          leader = true;
        }
      }
    }
    if (cached != nullptr) {
      ws->AdoptSharedSubgraph(std::move(cached));
      return;
    }
    if (ticket == nullptr) {
      // Collision bypass: extract privately; latest-wins insert below.
      ExtractSubgraphInto(g, seeds, options, ws);
      std::shared_ptr<const Subgraph> payload = DetachPayload(*ws);
      ws->AdoptSharedSubgraph(payload);
      InsertPayload(key, fingerprint, seeds, options, std::move(payload));
      return;
    }
    if (leader) {
      if (leader_extract_hook_) leader_extract_hook_();
      ExtractSubgraphInto(g, seeds, options, ws);
      std::shared_ptr<const Subgraph> payload = DetachPayload(*ws);
      // The leader swaps its raw extraction for the payload it is about to
      // publish, so its own walk sweeps the exact plan every waiter and
      // later hit will share.
      ws->AdoptSharedSubgraph(payload);
      {
        // LRU first, ticket erase second: a thread arriving in between
        // hits the fresh entry instead of opening a duplicate flight.
        std::lock_guard<std::mutex> lock(shard.mu);
        InsertPayloadLocked(&shard, key, fingerprint, seeds, options,
                            payload);
        auto fit = shard.inflight.find(key);
        if (fit != shard.inflight.end() && fit->second == ticket) {
          shard.inflight.erase(fit);
        }
      }
      {
        std::lock_guard<std::mutex> lock(ticket->mu);
        ticket->sub = std::move(payload);
        ticket->done = true;
      }
      ticket->cv.notify_all();
      return;
    }
    // Waiter: block until the leader publishes, then adopt its payload.
    std::shared_ptr<const Subgraph> published;
    {
      std::unique_lock<std::mutex> lock(ticket->mu);
      ticket->cv.wait(lock, [&] { return ticket->done; });
      published = ticket->sub;
    }
    if (published != nullptr) {
      ws->AdoptSharedSubgraph(std::move(published));
      return;
    }
    // Leader abandoned: retry from the top (hit, new flight, or lead).
  }
}

void SubgraphCache::InsertPayload(uint64_t key, uint64_t graph_fingerprint,
                                  std::span<const NodeId> seeds,
                                  const SubgraphOptions& options,
                                  std::shared_ptr<const Subgraph> sub) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertPayloadLocked(&shard, key, graph_fingerprint, seeds, options,
                      std::move(sub));
}

void SubgraphCache::InsertPayloadLocked(Shard* shard, uint64_t key,
                                        uint64_t graph_fingerprint,
                                        std::span<const NodeId> seeds,
                                        const SubgraphOptions& options,
                                        std::shared_ptr<const Subgraph> sub) {
  auto it = shard->index.find(key);
  if (it != shard->index.end()) {
    if (Matches(*it->second, graph_fingerprint, seeds, options.max_items)) {
      // Another worker inserted the same extraction first; its payload is
      // identical, so keep it and just refresh recency.
      shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
      return;
    }
    // 64-bit key collision between different identities: latest wins.
    shard->bytes -= it->second->bytes;
    shard->plan_bytes -= it->second->plan_bytes;
    shard->lru.erase(it->second);
    shard->index.erase(it);
    shard->evictions.fetch_add(1, std::memory_order_relaxed);
  }
  Entry entry;
  entry.key = key;
  entry.fingerprint = graph_fingerprint;
  entry.max_items = options.max_items;
  entry.seeds.assign(seeds.begin(), seeds.end());
  entry.bytes = PayloadBytes(*sub, seeds.size());
  entry.plan_bytes = PlanBytes(*sub);
  entry.sub = std::move(sub);
  shard->bytes += entry.bytes;
  shard->plan_bytes += entry.plan_bytes;
  shard->lru.push_front(std::move(entry));
  shard->index[key] = shard->lru.begin();
  shard->inserts.fetch_add(1, std::memory_order_relaxed);
  EvictOverflow(shard);
}

void SubgraphCache::Insert(uint64_t key, uint64_t graph_fingerprint,
                           std::span<const NodeId> seeds,
                           const SubgraphOptions& options,
                           const WalkWorkspace& ws) {
  // Detach a self-contained copy before taking the lock.
  InsertPayload(key, graph_fingerprint, seeds, options, DetachPayload(ws));
}

void SubgraphCache::EvictOverflow(Shard* shard) {
  while (shard->lru.size() > max_per_shard_ ||
         (max_bytes_per_shard_ > 0 && shard->bytes > max_bytes_per_shard_ &&
          shard->lru.size() > 1)) {
    const Entry& victim = shard->lru.back();
    shard->bytes -= victim.bytes;
    shard->plan_bytes -= victim.plan_bytes;
    shard->index.erase(victim.key);
    shard->lru.pop_back();
    shard->evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

SubgraphCacheStats SubgraphCache::Stats() const {
  SubgraphCacheStats stats;
  for (const auto& shard : shards_) {
    stats.hits += shard->hits.load(std::memory_order_relaxed);
    stats.misses += shard->misses.load(std::memory_order_relaxed);
    stats.inserts += shard->inserts.load(std::memory_order_relaxed);
    stats.evictions += shard->evictions.load(std::memory_order_relaxed);
    stats.coalesced_waits +=
        shard->coalesced_waits.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.resident_bytes += shard->bytes;
    stats.plan_resident_bytes += shard->plan_bytes;
  }
  return stats;
}

void SubgraphCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
    shard->plan_bytes = 0;
    shard->hits.store(0, std::memory_order_relaxed);
    shard->misses.store(0, std::memory_order_relaxed);
    shard->inserts.store(0, std::memory_order_relaxed);
    shard->evictions.store(0, std::memory_order_relaxed);
    shard->coalesced_waits.store(0, std::memory_order_relaxed);
  }
}

}  // namespace longtail
