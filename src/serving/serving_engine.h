// ServingEngine: the single front door for online queries.
//
// Before this subsystem, every caller hand-rolled QueryBatch against a raw
// recommender: no admission control (a traffic spike queued unboundedly
// inside the caller), no cross-caller batching (two clients asking at the
// same instant ran two batches), and concurrent identical cold queries
// raced duplicate subgraph extractions into the SubgraphCache. The engine
// industrializes that serving layer:
//
//  * Callers submit a ServeRequest{user, top_k/score_items, deadline}
//    against a registered model — future-based async (Submit) or blocking
//    sync (Query/QueryAll, which applies backpressure instead of
//    overflowing the queue).
//  * A micro-batcher groups pending requests per model into
//    admission-controlled batches: a queue at max_queue_depth rejects new
//    requests fast with Status::ResourceExhausted; a batch dispatches when
//    it reaches max_batch_size or when its oldest request has waited
//    flush_interval_ticks. Time is abstract ticks from an injectable
//    EngineClock (request_queue.h), so tests drive the policy with a
//    FakeClock and manual Pump() — no sleeps, fully deterministic.
//  * Requests carry optional deadlines; an over-deadline request fails
//    with Status::DeadlineExceeded (at submit or at dispatch) and never
//    occupies walk workers.
//  * Batches execute on the shared ServingPool through the model's
//    QueryBatch, with the engine's SubgraphCache — whose single-flight
//    front door coalesces concurrent identical extractions — so results
//    are bit-identical to a direct QueryBatch call at any thread count
//    (tests/serving_engine_test.cc).
//
// Models are registered borrowed (AddModel) or owned — AddOwnedModel, or
// straight from a checkpoint via AddCheckpoint / the registry helper
// LoadCheckpointDirIntoEngine (model_registry.h), which is how a restarted
// server goes disk → serving without ever fitting.
//
// Threading: Submit/Query/QueryAll/Pump/Stats are thread-safe. With
// start_dispatcher (default) a background thread flushes ready batches;
// with it off the embedder pumps explicitly (deterministic tests, or
// callers that want batching without an extra thread). Destruction stops
// the dispatcher and fails every still-queued request with a typed
// Status — it never blocks on unserved traffic.
#ifndef LONGTAIL_SERVING_SERVING_ENGINE_H_
#define LONGTAIL_SERVING_SERVING_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "serving/request_queue.h"
#include "util/metrics.h"

namespace longtail {

struct ServingEngineOptions {
  /// A model's batch dispatches as soon as this many requests wait.
  size_t max_batch_size = 64;
  /// Admission control: per-model queue depth beyond which Submit fails
  /// fast with ResourceExhausted instead of queueing unboundedly.
  size_t max_queue_depth = 1024;
  /// A non-full batch dispatches once its oldest request has waited this
  /// many ticks (latency bound of micro-batching; 0 = every pump).
  uint64_t flush_interval_ticks = 1;
  /// Worker threads per executed batch (BatchOptions::num_threads):
  /// 0 = hardware concurrency, 1 = the dispatching thread only.
  size_t batch_threads = 0;
  /// Pool batches fan out on; nullptr = ServingPool::Global().
  ServingPool* pool = nullptr;
  /// Shared cache of extracted walk subgraphs (with single-flight
  /// coalescing); nullptr = no caching. May be shared across engines.
  SubgraphCache* subgraph_cache = nullptr;
  /// Tick source; nullptr = an engine-owned SteadyTickClock
  /// (1 tick = 1 ms). Tests inject a FakeClock.
  EngineClock* clock = nullptr;
  /// Spawn the background dispatcher thread. Off = the embedder calls
  /// Pump() (deterministic tests; sync Query/QueryAll pump themselves).
  bool start_dispatcher = true;
  /// Metrics registry the engine exports into (counters, per-model queue
  /// gauges, batch-size and queue-wait histograms — see
  /// docs/OBSERVABILITY.md). nullptr = the engine owns a private registry,
  /// reachable via metrics(). An external registry must outlive the engine;
  /// register at most one engine per registry (the series names carry no
  /// engine label).
  MetricsRegistry* metrics = nullptr;
  /// Blocking Query/QueryAll retry budget under sustained backpressure:
  /// after this many ResourceExhausted admissions for one request, the
  /// rejection is surfaced to the caller instead of retried (the queue is
  /// not draining; spinning harder will not help). 0 behaves like 1: the
  /// first queue-full rejection is surfaced.
  uint64_t query_retry_budget = 256;
};

/// Cumulative engine counters.
///
/// Snapshot semantics: Stats() is taken while traffic is in flight, without
/// stopping the engine, so a snapshot is not a single instant — but it is
/// *ordered*. Every outcome counter (completed, the rejected_* family,
/// expired_in_queue, dispatched) is incremented with release ordering after
/// the matching submitted_ increment, and Stats() acquire-loads the
/// outcomes first and `submitted` last. Any snapshot therefore satisfies
///   completed + rejected_* + expired_in_queue <= submitted
///   completed <= dispatched <= submitted
/// (requests the snapshot caught mid-flight inflate `submitted` only). A
/// snapshot that loaded each atomic independently could observe the
/// opposite — an outcome without its submission — which is exactly the
/// over-100% RejectionRate bug this ordering fixes.
struct EngineStats {
  uint64_t submitted = 0;           // every Submit call
  uint64_t completed = 0;           // promises fulfilled by an executed batch
  uint64_t rejected_queue_full = 0; // admission control (ResourceExhausted)
  uint64_t rejected_expired = 0;    // dead on arrival (DeadlineExceeded)
  uint64_t expired_in_queue = 0;    // deadline passed while queued
  uint64_t rejected_unknown_model = 0;
  uint64_t rejected_shutdown = 0;   // failed at destruction / after close
  uint64_t batches_executed = 0;
  uint64_t dispatched = 0;          // requests handed to QueryBatch
  uint64_t queue_ticks_sum = 0;     // total ticks spent waiting, dispatched
  uint64_t queue_ticks_max = 0;
  /// Queue-full admissions retried inside blocking Query/QueryAll (each
  /// retry re-submits, so these also inflate submitted + rejected_queue_full).
  uint64_t backpressure_retries = 0;
  /// batch_size_pow2[i] counts executed batches of size in [2^i, 2^(i+1)).
  std::vector<uint64_t> batch_size_pow2;

  double MeanQueueTicks() const {
    return dispatched > 0 ? static_cast<double>(queue_ticks_sum) / dispatched
                          : 0.0;
  }
  /// Rejected (queue-full + expired-on-arrival + unknown-model + shutdown)
  /// over submitted. Clamped to [0, 1] as defense in depth — the snapshot
  /// ordering above already guarantees rejected <= submitted.
  double RejectionRate() const {
    const uint64_t rejected = rejected_queue_full + rejected_expired +
                              rejected_unknown_model + rejected_shutdown;
    if (submitted == 0) return 0.0;
    const double rate = static_cast<double>(rejected) / submitted;
    return rate > 1.0 ? 1.0 : rate;
  }
};

class ServingEngine {
 public:
  explicit ServingEngine(ServingEngineOptions options = {});
  /// Stops the dispatcher and fails every still-queued request with
  /// FailedPrecondition ("engine shutting down"); never blocks on
  /// unserved traffic. Callers still holding futures see them resolve.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // ------------------------------------------------------------- models
  /// Registers a borrowed fitted model under `model->name()` (or an
  /// explicit name). The model must outlive the engine and be safe for
  /// concurrent queries (the Recommender contract). Fails with
  /// InvalidArgument on a duplicate name or null/unfitted model.
  Status AddModel(const Recommender* model);
  Status AddModel(std::string name, const Recommender* model);
  /// Same, but the engine owns the model (the checkpoint path).
  Status AddOwnedModel(std::unique_ptr<Recommender> model);
  /// Cold-start wiring: loads the checkpoint through ModelRegistry
  /// (LoadModelCheckpoint) and registers the result as an owned model.
  /// `data` must outlive the engine.
  Status AddCheckpoint(const std::string& path, const Dataset& data);
  bool HasModel(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> ModelNames() const;

  // ------------------------------------------------------------ serving
  /// Async submit. The returned future always becomes ready: with the
  /// batch result, or immediately with a typed Status — NotFound (unknown
  /// model), ResourceExhausted (queue full), DeadlineExceeded (already
  /// past deadline), FailedPrecondition (shutting down). Any
  /// `request.score_items` storage must outlive the future's resolution.
  std::future<UserQueryResult> Submit(const std::string& model,
                                      const ServeRequest& request);

  /// Blocking single query: Submit + (self-pump when no dispatcher runs)
  /// + wait, with retry-under-backpressure on a full queue. Retries are
  /// bounded by options().query_retry_budget; past the budget the
  /// ResourceExhausted rejection is returned to the caller.
  UserQueryResult Query(const std::string& model,
                        const ServeRequest& request);

  /// Blocking bulk traffic, results aligned with `requests`. Applies
  /// backpressure: at most max_queue_depth requests are in flight at
  /// once, and queue-full rejections are retried after draining instead
  /// of surfacing to the caller — up to query_retry_budget retries per
  /// request, with tick-granularity backoff between attempts when the
  /// queue is held full by foreign traffic (never a hot spin).
  std::vector<UserQueryResult> QueryAll(
      const std::string& model, std::span<const ServeRequest> requests);

  /// Dispatches every model's ready batches at the current tick (force =
  /// ignore readiness and flush everything queued). Returns the number of
  /// requests taken off queues (executed + expired). Thread-safe; the
  /// embedder's pump and the dispatcher may interleave.
  size_t Pump(bool force = false);
  /// Force-pumps until every queue is empty; returns requests dispatched.
  size_t PumpUntilIdle();

  bool dispatcher_running() const { return dispatcher_.joinable(); }
  uint64_t NowTicks() const { return clock_->NowTicks(); }
  const ServingEngineOptions& options() const { return options_; }

  EngineStats Stats() const;

  /// The registry this engine exports into: the caller-supplied one, or the
  /// engine-owned private registry when options.metrics was null. Never
  /// null; ExportText() on it is the scrape surface for a /metrics
  /// endpoint.
  MetricsRegistry* metrics() const { return metrics_; }

  /// Test-only: invoked by Stats() after its first field load, widening the
  /// window between that load and the rest of the snapshot so tests can
  /// deterministically interleave concurrent traffic mid-snapshot (the
  /// over-counted-outcome regression needs exactly that interleaving, which
  /// scheduler preemption alone almost never produces on one core). Set
  /// before any concurrent Stats() caller exists; empty by default and
  /// never used in production.
  void set_stats_snapshot_hook_for_test(std::function<void()> hook) {
    stats_snapshot_hook_for_test_ = std::move(hook);
  }

 private:
  struct ModelEntry {
    std::string name;
    const Recommender* model = nullptr;
    std::unique_ptr<Recommender> owned;
    RequestQueue queue;
    explicit ModelEntry(size_t max_depth) : queue(max_depth) {}
  };

  Status AddEntry(std::string name, const Recommender* model,
                  std::unique_ptr<Recommender> owned);
  /// Stable entry pointers (entries are never removed before destruction).
  std::vector<ModelEntry*> SnapshotEntries() const;
  ModelEntry* FindEntry(const std::string& name) const;
  /// Immediately-ready future carrying a rejection.
  static std::future<UserQueryResult> RejectedFuture(Status status);
  /// Takes ready batches off one entry; returns requests taken.
  size_t PumpEntry(ModelEntry* entry, bool force);
  /// Runs one batch through the model, failing expired requests and
  /// fulfilling the rest.
  void ExecuteBatch(ModelEntry* entry, std::vector<PendingRequest> batch);
  void DispatcherLoop();
  void RecordBatchSize(size_t size);
  /// Registers the engine-level callback series and owned histograms.
  void RegisterEngineMetrics();
  /// Registers the per-model queue gauges for a just-added entry.
  void RegisterEntryMetrics(ModelEntry* entry);
  /// Backpressure pause between Query retries: yields until the engine
  /// clock advances one tick, bounded so a frozen test clock cannot spin.
  void BackoffOneTick();

  ServingEngineOptions options_;
  /// See set_stats_snapshot_hook_for_test().
  std::function<void()> stats_snapshot_hook_for_test_;
  std::unique_ptr<EngineClock> owned_clock_;
  EngineClock* clock_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  /// Owned by the registry; observed on the dispatch path.
  Histogram* batch_size_hist_ = nullptr;
  Histogram* queue_wait_hist_ = nullptr;
  /// Post-grouping fused sweep widths (longtail_engine_fused_width):
  /// batch_size_hist_ counts requests per micro-batch, this counts query
  /// lanes per fused kernel sweep after QueryBatch groups by seed set —
  /// the pair separates queue tuning from fusion efficiency.
  Histogram* fused_width_hist_ = nullptr;
  /// Bound once at construction and handed to every QueryBatch via
  /// BatchOptions::fused_width_observer (pool workers call it
  /// concurrently; Histogram::Observe is lock-free).
  std::function<void(int32_t)> fused_width_observer_fn_;

  mutable std::mutex models_mu_;
  std::map<std::string, std::unique_ptr<ModelEntry>> models_;

  std::atomic<bool> shutdown_{false};
  /// Requests sitting in queues across all models (dispatcher wake hint).
  std::atomic<size_t> queued_{0};
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::thread dispatcher_;

  // Stats counters.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_expired_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> rejected_unknown_model_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> batches_executed_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> queue_ticks_sum_{0};
  std::atomic<uint64_t> queue_ticks_max_{0};
  std::atomic<uint64_t> backpressure_retries_{0};
  static constexpr size_t kBatchBuckets = 17;  // 2^16 > any sane batch
  std::array<std::atomic<uint64_t>, kBatchBuckets> batch_size_pow2_{};
};

}  // namespace longtail

#endif  // LONGTAIL_SERVING_SERVING_ENGINE_H_
