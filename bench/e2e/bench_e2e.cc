// bench_e2e: the repository's end-to-end benchmark. One process runs one
// workload against a checkpoint fleet that `--prepare` wrote beforehand:
//
//   bench_e2e --prepare --fleet=DIR
//   bench_e2e --workload=NAME --seed=N --seconds=T --trace=0|1 --fleet=DIR
//
// Workloads (README.md gives the reasons for each):
//   head_active   AT µ=120 behind ServingEngine + SubgraphCache; the corpus's
//                 256 most active users, each asked for in proportion to its
//                 rating count; the cache holds them all.
//   tail_uniform  same stack, users uniform over the whole corpus, so the
//                 cache holds ~7% of the working set.
//   http_head     head_active's users through HttpServer + ServingHttpFront
//                 on loopback: 90% /v1/recommend, 10% /v1/score.
//   offline_ac2   AC2 µ=0 (the whole component) through QueryBatch
//                 directly: no engine, no cache.
//
// A run sets up the stack it serves from, runs a discarded warm-in, then
// kCycles cycles of a nominal segment (open loop at a fixed rate; offline:
// one user per call) that gives p50 and a saturation segment (closed loop;
// offline: 64-user batches) that gives throughput. Sampled responses are
// compared with a direct cache-less QueryBatch. With --trace=1 the run then
// replays the stream's first requests level by level (e2e_trace.h) and
// reports per-layer metrics instead of the end-to-end ones. Finally the
// stack is torn down and set up kSetups - 1 more times; setup_s is the
// median over all set-ups.
//
// The last line of standard output is the JSON result. Exit codes: 0 ok,
// 1 a response differed from the reference, 2 bad flags or set-up failure,
// 3 invalid run (generator late, nominal p99 past its limit, or a nominal
// failure) — a noisy host, not a measurement.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "data/generator.h"
#include "data/serialization.h"
#include "e2e_common.h"
#include "e2e_load.h"
#include "e2e_trace.h"
#include "graph/subgraph_cache.h"
#include "http/http_server.h"
#include "http/serving_http.h"
#include "serving/model_registry.h"
#include "serving/serving_engine.h"
#include "util/flags.h"
#include "util/metrics.h"

namespace longtail::e2e {
namespace {

enum class Workload { kHeadActive, kTailUniform, kHttpHead, kOfflineAc2 };

struct WorkloadInfo {
  const char* name;
  Workload kind;
  const char* checkpoint;  // file in the fleet directory
  double nominal_rps;      // open-loop rate of the nominal segments
  size_t replay;           // requests replayed by the traced run
};

// Rates sit at a quarter to a third of each stack's capacity on a 4-core
// host, so the nominal segments measure service time plus ordinary
// queueing; the replay lengths keep a traced run within ~4 s of extra time.
constexpr WorkloadInfo kWorkloads[] = {
    {"head_active", Workload::kHeadActive, "at.ckpt", 1800.0, 400},
    {"tail_uniform", Workload::kTailUniform, "at.ckpt", 300.0, 120},
    {"http_head", Workload::kHttpHead, "at.ckpt", 400.0, 400},
    {"offline_ac2", Workload::kOfflineAc2, "ac2.ckpt", 0.0, 64},
};

constexpr double kCorpusScale = 0.02;      // 7,661 users x 1,798 items
constexpr int32_t kServingMu = 120;        // AT's BFS item cap
constexpr size_t kHotUsers = 256;          // fits the cache with room left
constexpr size_t kOfflineUsers = 1024;
constexpr size_t kBatch = 64;              // engine default batch size
// Assumptions, not measured from any deployment (README.md): the cache
// size, and http_head's share of /v1/score requests and their candidates.
constexpr size_t kCacheBytes = size_t{1} << 30;
constexpr double kScoreFraction = 0.1;
constexpr size_t kScoreItems = 100;
constexpr int kSaturationWindow = 256;     // in flight; queue bound is 1024
constexpr int kHttpConnections = 4;
constexpr int kSetups = 5;
// The warm-in takes this share of --seconds; kCycles nominal + saturation
// cycles share the rest equally.
constexpr double kWarmShare = 0.10;
constexpr int kCycles = 4;
// Validity limits on the nominal segments (README.md explains why the
// lateness limit reads p90).
constexpr double kMaxLateP90Ms = 5.0;
constexpr double kMaxNominalP99Ms = 50.0;

Status Prepare(const std::string& fleet) {
  std::error_code ec;
  std::filesystem::create_directories(fleet, ec);
  if (ec) return Status::IOError("cannot create " + fleet);
  LT_ASSIGN_OR_RETURN(const SyntheticData corpus,
                      GenerateSyntheticData(
                          SyntheticSpec::DoubanLike(kCorpusScale)));
  const Dataset& data = corpus.dataset;
  LT_RETURN_IF_ERROR(SaveDatasetBinary(data, fleet + "/dataset.bin"));
  GraphWalkOptions walk;
  walk.max_subgraph_items = kServingMu;
  AbsorbingTimeRecommender at(walk);
  LT_RETURN_IF_ERROR(at.Fit(data));
  LT_RETURN_IF_ERROR(SaveModelCheckpoint(at, fleet + "/at.ckpt"));
  AbsorbingCostOptions cost;
  cost.walk.max_subgraph_items = 0;  // the whole reachable component
  AbsorbingCostRecommender ac2(EntropySource::kTopicBased, cost);
  LT_RETURN_IF_ERROR(ac2.Fit(data));
  LT_RETURN_IF_ERROR(SaveModelCheckpoint(ac2, fleet + "/ac2.ckpt"));
  std::fprintf(stderr, "# prepared fleet in %s: %d users x %d items, %lld "
               "ratings\n", fleet.c_str(), data.num_users(), data.num_items(),
               static_cast<long long>(data.num_ratings()));
  return Status::OK();
}

/// The users are the corpus's, the same for every seed; the seed only
/// orders them (offline) or draws the request sequence from their weights.
Population MakePopulation(Workload kind, const Dataset& data, uint64_t seed) {
  Population pop;
  pop.num_items = data.num_items();
  const std::vector<UserId> by_activity = UsersByActivity(data);
  switch (kind) {
    case Workload::kHeadActive:
    case Workload::kHttpHead:
      // The most active users, each asked for in proportion to its ratings.
      pop.users.assign(by_activity.begin(), by_activity.begin() + kHotUsers);
      for (UserId u : pop.users) {
        pop.weights.push_back(static_cast<double>(data.UserItems(u).size()));
      }
      if (kind == Workload::kHttpHead) {
        pop.score_fraction = kScoreFraction;
        pop.score_items = kScoreItems;
      }
      break;
    case Workload::kTailUniform:
      pop.users = by_activity;
      pop.weights.assign(pop.users.size(), 1.0);
      break;
    case Workload::kOfflineAc2: {
      // Evenly spaced ranks of the activity order, so heavy and light
      // users are both represented; the seed shuffles the scan order.
      for (size_t i = 0; i < kOfflineUsers; ++i) {
        pop.users.push_back(by_activity[i * by_activity.size() /
                                        kOfflineUsers]);
      }
      Rng rng(MixSeed(seed, 0));
      rng.Shuffle(&pop.users);
      break;
    }
  }
  return pop;
}

/// The set-up warm-up: each of the 256 most active users once (head, http,
/// tail), one 64-user batch of the scan (offline).
std::vector<Request> WarmupRequests(Workload kind, const Population& pop) {
  const size_t count = std::min(
      pop.users.size(), kind == Workload::kOfflineAc2 ? kBatch : kHotUsers);
  std::vector<Request> requests(count);
  for (size_t i = 0; i < count; ++i) {
    requests[i].user = pop.users[i];
    requests[i].top_k = pop.top_k;
  }
  return requests;
}

/// Everything a workload serves from. Declaration order is destruction
/// order in reverse: the server stops before the front, the engine before
/// the cache, the cache unbinds from the registry, and the model and the
/// dataset it points into go last.
struct Stack {
  Dataset data;
  std::unique_ptr<Recommender> model;
  MetricsRegistry registry;
  std::unique_ptr<SubgraphCache> cache;
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<ServingHttpFront> front;
  std::unique_ptr<HttpServer> server;
};

/// The engine as examples/serve_http.cpp deploys it (ServingEngineOptions
/// defaults), plus a 1 GiB SubgraphCache when `with_cache`.
Status StartEngine(Stack* s, bool with_cache) {
  if (with_cache) {
    SubgraphCacheOptions cache_options;
    cache_options.max_bytes = kCacheBytes;
    s->cache = std::make_unique<SubgraphCache>(cache_options);
    s->cache->BindMetrics(&s->registry);
  }
  ServingEngineOptions options;
  options.subgraph_cache = s->cache.get();
  options.metrics = &s->registry;
  s->engine = std::make_unique<ServingEngine>(options);
  return s->engine->AddModel(s->model.get());
}

Status StartHttp(Stack* s) {
  s->front = std::make_unique<ServingHttpFront>(s->engine.get());
  HttpServerOptions options;
  options.num_workers = kHttpConnections;
  options.metrics = &s->registry;
  ServingHttpFront* front = s->front.get();
  s->server = std::make_unique<HttpServer>(
      [front](const RequestContext& ctx) { return front->Dispatch(ctx); },
      options);
  LT_RETURN_IF_ERROR(s->server->Start());
  front->MarkReady();
  return Status::OK();
}

/// Sends the warm-up through the engine in chunks of at most one batch
/// (offline: one direct batch).
Status Warmup(const Stack& s, const std::vector<Request>& requests) {
  std::vector<UserQueryResult> results;
  if (s.engine == nullptr) {
    std::vector<UserQuery> queries;
    for (const Request& r : requests) queries.push_back(AsQuery(r));
    results = s.model->QueryBatch(queries);
  } else {
    for (size_t begin = 0; begin < requests.size(); begin += kBatch) {
      std::vector<ServeRequest> chunk;
      for (size_t i = begin; i < std::min(requests.size(), begin + kBatch);
           ++i) {
        chunk.push_back(AsServeRequest(requests[i]));
      }
      for (UserQueryResult& r : s.engine->QueryAll(s.model->name(), chunk)) {
        results.push_back(std::move(r));
      }
    }
  }
  for (const UserQueryResult& r : results) LT_RETURN_IF_ERROR(r.status);
  return Status::OK();
}

struct SetupTimes {
  double total_s = 0.0;
  double dataset_ms = 0.0;
  double checkpoint_ms = 0.0;
  double warmup_ms = 0.0;
};

/// Dataset load + checkpoint load + engine (and server) start + warm-up.
Result<std::unique_ptr<Stack>> Setup(const WorkloadInfo& w,
                                     const std::string& fleet, uint64_t seed,
                                     Population* pop, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  auto s = std::make_unique<Stack>();
  LT_ASSIGN_OR_RETURN(s->data, LoadDatasetBinary(fleet + "/dataset.bin"));
  const Clock::time_point t1 = Clock::now();
  LT_ASSIGN_OR_RETURN(s->model,
                      LoadModelCheckpoint(fleet + "/" + w.checkpoint, s->data));
  const Clock::time_point t2 = Clock::now();
  *pop = MakePopulation(w.kind, s->data, seed);
  if (w.kind != Workload::kOfflineAc2) {
    LT_RETURN_IF_ERROR(StartEngine(s.get(), /*with_cache=*/true));
    if (w.kind == Workload::kHttpHead) LT_RETURN_IF_ERROR(StartHttp(s.get()));
  }
  const Clock::time_point t3 = Clock::now();
  LT_RETURN_IF_ERROR(Warmup(*s, WarmupRequests(w.kind, *pop)));
  const Clock::time_point t4 = Clock::now();
  times->total_s = Seconds(t4 - t0);
  times->dataset_ms = Millis(t1 - t0);
  times->checkpoint_ms = Millis(t2 - t1);
  times->warmup_ms = Millis(t4 - t3);
  return s;
}

/// Engine, cache and fusion counters, read around every measured segment
/// of a traced run.
struct Snapshot {
  EngineStats engine;
  SubgraphCacheStats cache;
  double fused_sum = 0.0;
  uint64_t fused_count = 0;
};

Snapshot Take(const Stack& s, const Histogram* fused) {
  Snapshot snap;
  if (s.engine != nullptr) snap.engine = s.engine->Stats();
  if (s.cache != nullptr) snap.cache = s.cache->Stats();
  if (fused != nullptr) {
    snap.fused_sum = fused->Sum();
    snap.fused_count = fused->Count();
  }
  return snap;
}

using SnapshotFn = std::function<Snapshot()>;

/// Counter growth summed over one phase's segments.
struct Growth {
  uint64_t dispatched = 0;
  uint64_t batches = 0;
  uint64_t queue_ticks = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double fused_sum = 0.0;
  uint64_t fused_count = 0;

  void Add(const Snapshot& from, const Snapshot& to) {
    dispatched += to.engine.dispatched - from.engine.dispatched;
    batches += to.engine.batches_executed - from.engine.batches_executed;
    queue_ticks += to.engine.queue_ticks_sum - from.engine.queue_ticks_sum;
    hits += to.cache.hits - from.cache.hits;
    misses += to.cache.misses - from.cache.misses;
    fused_sum += to.fused_sum - from.fused_sum;
    fused_count += to.fused_count - from.fused_count;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Length of one nominal or saturation segment: after the warm-in, kCycles
/// cycles each run a nominal segment and then a saturation segment, so both
/// phases sample the host across the whole run, not one stretch of it.
double SegmentSeconds(double seconds) {
  return (1.0 - kWarmShare) * seconds / (2.0 * kCycles);
}

/// The measured phases of one run.
struct Phases {
  PhaseStats warm, nominal, saturation;
  uint64_t extra_attempted = 0;  // /metrics scrapes
  uint64_t extra_failed = 0;
  std::vector<Check> checks;
  Growth nominal_growth, saturation_growth;  // traced runs
  Snapshot end;                              // traced runs
};

Phases RunEnginePhases(Stack& s, const WorkloadInfo& w, const Population& pop,
                       uint64_t seed, double seconds,
                       const SnapshotFn& snapshot) {
  Phases p;
  const std::string model = s.model->name();
  const double segment = SegmentSeconds(seconds);
  RequestStream open(pop, seed, 0);
  RequestStream closed(pop, seed, 1);
  // Saturation traffic churns tail_uniform's cache through several full
  // turnovers before anything is measured.
  p.warm = RunEngineClosedWindow(*s.engine, model, closed, kSaturationWindow,
                                 kWarmShare * seconds, &p.checks);
  for (int c = 0; c < kCycles; ++c) {
    const Snapshot s0 = snapshot();
    p.nominal.Merge(RunEngineOpenLoop(*s.engine, model, open, w.nominal_rps,
                                      segment, &p.checks));
    const Snapshot s1 = snapshot();
    p.saturation.Merge(RunEngineClosedWindow(*s.engine, model, closed,
                                             kSaturationWindow, segment,
                                             &p.checks));
    const Snapshot s2 = snapshot();
    p.nominal_growth.Add(s0, s1);
    p.saturation_growth.Add(s1, s2);
  }
  p.end = snapshot();
  return p;
}

Phases RunHttpPhases(Stack& s, const WorkloadInfo& w, const Population& pop,
                     uint64_t seed, double seconds,
                     const SnapshotFn& snapshot) {
  Phases p;
  const std::string model = s.model->name();
  HttpSchedule schedule;
  schedule.start = Clock::now() + std::chrono::milliseconds(50);
  schedule.warm_end = schedule.start + FromSeconds(kWarmShare * seconds);
  schedule.segment = FromSeconds(SegmentSeconds(seconds));
  schedule.cycles = kCycles;
  schedule.rate = w.nominal_rps / kHttpConnections;
  std::vector<HttpConnectionResult> results(kHttpConnections);
  std::vector<std::thread> connections;
  for (int c = 0; c < kHttpConnections; ++c) {
    HttpSchedule mine = schedule;
    mine.scrape = c == 0;
    connections.emplace_back(RunHttpConnection, s.server->port(), model,
                             RequestStream(pop, seed, c), mine, &results[c]);
  }
  for (int c = 0; c < kCycles; ++c) {
    std::this_thread::sleep_until(schedule.NominalStart(c));
    const Snapshot s0 = snapshot();
    std::this_thread::sleep_until(schedule.ClosedStart(c));
    const Snapshot s1 = snapshot();
    std::this_thread::sleep_until(schedule.ClosedStart(c) + schedule.segment);
    const Snapshot s2 = snapshot();
    p.nominal_growth.Add(s0, s1);
    p.saturation_growth.Add(s1, s2);
  }
  p.end = snapshot();
  for (std::thread& t : connections) t.join();
  for (int c = 0; c < kCycles; ++c) {
    std::vector<double> done_s;
    for (const HttpConnectionResult& r : results) {
      done_s.insert(done_s.end(), r.closed_done_s[c].begin(),
                    r.closed_done_s[c].end());
    }
    p.saturation.rates.push_back(WindowRate(std::move(done_s)));
  }
  for (HttpConnectionResult& r : results) {
    p.warm.Merge(r.warm);
    p.nominal.Merge(r.nominal);
    p.saturation.Merge(r.closed);
    p.extra_attempted += r.scrapes;
    p.extra_failed += r.scrape_failures;
    for (HttpCheck& check : r.checks) {
      p.checks.push_back(
          {std::move(check.request), ParseServedBody(check.body)});
    }
  }
  return p;
}

Phases RunOfflinePhases(Stack& s, const Population& pop, uint64_t seed,
                        double seconds, double* fused_width_mean) {
  Phases p;
  const double segment = SegmentSeconds(seconds);
  RequestStream stream(pop, seed, 0);
  p.warm = RunOfflineBatches(*s.model, stream, kBatch, kWarmShare * seconds,
                             nullptr, nullptr);
  std::atomic<uint64_t> lanes{0}, sweeps{0};
  const std::function<void(int32_t)> observer = [&](int32_t width) {
    lanes += static_cast<uint64_t>(width);
    ++sweeps;
  };
  for (int c = 0; c < kCycles; ++c) {
    p.nominal.Merge(RunOfflineSingles(*s.model, stream, segment, &p.checks));
    p.saturation.Merge(RunOfflineBatches(*s.model, stream, kBatch, segment,
                                         &observer, &p.checks));
  }
  *fused_width_mean = Ratio(static_cast<double>(lanes.load()),
                            static_cast<double>(sweeps.load()));
  return p;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "request,name,parent,start_us,dur_us\n");
  for (const Span& sp : spans) {
    std::fprintf(f, "%u,%s,%s,%.3f,%.3f\n", sp.request, sp.name, sp.parent,
                 sp.start_us, sp.dur_us);
  }
  std::fclose(f);
}

struct Flags {
  std::string workload;
  int64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string fleet = ".bench_build/fleet";
  std::string trace_out;
  int replay = 0;
  bool prepare = false;
};

int Run(const Flags& flags) {
  const WorkloadInfo* w = nullptr;
  for (const WorkloadInfo& info : kWorkloads) {
    if (flags.workload == info.name) w = &info;
  }
  if (w == nullptr || flags.seconds <= 0.0) {
    std::fprintf(stderr, "unknown --workload '%s' or bad --seconds\n",
                 flags.workload.c_str());
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.seed);
  const bool trace = flags.trace != 0;

  // The first stack serves the run; kSetups - 1 more are only timed, after
  // it is gone, and setup_s is the median of all of them.
  std::vector<SetupTimes> setups(1);
  Population pop;
  auto first = Setup(*w, flags.fleet, seed, &pop, &setups[0]);
  if (!first.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 first.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Stack> stack = std::move(first).value();
  Stack& s = *stack;

  // Traced runs read counters at phase edges; the fused-width histogram
  // is the engine's (registration is get-or-create).
  const Histogram* fused =
      s.engine == nullptr
          ? nullptr
          : s.registry.RegisterHistogram("longtail_engine_fused_width", "",
                                         {1.0});
  const SnapshotFn snapshot = [&] {
    return trace ? Take(s, fused) : Snapshot{};
  };
  double offline_fused_width = 0.0;
  Phases p;
  switch (w->kind) {
    case Workload::kHeadActive:
    case Workload::kTailUniform:
      p = RunEnginePhases(s, *w, pop, seed, flags.seconds, snapshot);
      break;
    case Workload::kHttpHead:
      p = RunHttpPhases(s, *w, pop, seed, flags.seconds, snapshot);
      break;
    case Workload::kOfflineAc2:
      p = RunOfflinePhases(s, pop, seed, flags.seconds, &offline_fused_width);
      break;
  }

  const double p50 = BinnedPercentile(p.nominal.latency_ms, 0.50);
  const double p90 = BinnedPercentile(p.nominal.latency_ms, 0.90);
  const double p99 = BinnedPercentile(p.nominal.latency_ms, 0.99);
  const double late_p90 = Percentile(p.nominal.late_ms, 0.90);
  uint64_t attempted = p.warm.attempted + p.nominal.attempted +
                       p.saturation.attempted + p.extra_attempted;
  uint64_t failed = p.warm.failed + p.nominal.failed + p.saturation.failed +
                    p.extra_failed;
  uint64_t mismatches = CountMismatches(*s.model, p.checks);
  std::fprintf(stderr,
               "# %s seed %llu: nominal %zu latencies, p50 %.3f / p90 %.3f / "
               "p99 %.3f ms, generator late p90 %.3f ms; saturation %.1f/s; "
               "%zu responses checked, %llu differ\n",
               w->name, static_cast<unsigned long long>(seed),
               p.nominal.latency_ms.size(), p50, p90, p99, late_p90,
               p.saturation.Throughput(), p.checks.size(),
               static_cast<unsigned long long>(mismatches));
  std::fprintf(stderr, "# saturation: %zu windows, %.1f to %.1f/s\n",
               p.saturation.rates.size(), Percentile(p.saturation.rates, 0.0),
               Percentile(p.saturation.rates, 1.0));

  std::vector<Metric> metrics;
  if (trace) {
    // Phase counters first: the replay clears the cache.
    const Growth& nominal = p.nominal_growth;
    const Growth& saturation = p.saturation_growth;
    double batch_size = Ratio(static_cast<double>(saturation.dispatched),
                              static_cast<double>(saturation.batches));
    double queue_wait = Ratio(static_cast<double>(nominal.queue_ticks),
                              static_cast<double>(nominal.dispatched));
    const double fused_width =
        s.engine == nullptr
            ? offline_fused_width
            : Ratio(saturation.fused_sum,
                    static_cast<double>(saturation.fused_count));
    const uint64_t hits = nominal.hits + saturation.hits;
    const uint64_t misses = nominal.misses + saturation.misses;
    const double hit_rate = Ratio(static_cast<double>(hits),
                                  static_cast<double>(hits + misses));
    const double resident_mb =
        static_cast<double>(p.end.cache.resident_bytes) / (1 << 20);
    const double entry_kb =
        Ratio(static_cast<double>(p.end.cache.resident_bytes) / 1024.0,
              static_cast<double>(p.end.cache.entries));

    if (w->kind == Workload::kOfflineAc2) {
      // The replay needs an engine and a server; offline runs without a
      // cache, as its phases did.
      Status st = StartEngine(&s, /*with_cache=*/false);
      if (st.ok()) st = StartHttp(&s);
      if (!st.ok()) {
        std::fprintf(stderr, "replay stack: %s\n", st.ToString().c_str());
        return 2;
      }
    } else if (s.server == nullptr) {
      if (Status st = StartHttp(&s); !st.ok()) {
        std::fprintf(stderr, "replay server: %s\n", st.ToString().c_str());
        return 2;
      }
    }
    ReplayTargets targets;
    targets.model = s.model.get();
    targets.model_name = s.model->name();
    targets.engine = s.engine.get();
    targets.front = s.front.get();
    targets.port = s.server->port();
    targets.cache = s.cache.get();
    targets.registry = &s.registry;
    // tail_uniform replays its miss path; the head workloads their hit
    // path, from the post-setup cache (every hot user resident).
    targets.cold = w->kind == Workload::kTailUniform;
    if (s.cache != nullptr && !targets.cold) {
      s.cache->Clear();
      if (Status st = Warmup(s, WarmupRequests(w->kind, pop)); !st.ok()) {
        std::fprintf(stderr, "replay warm-up: %s\n", st.ToString().c_str());
        return 2;
      }
    }
    RequestStream stream(pop, seed, 0);
    std::vector<Request> requests(flags.replay > 0
                                      ? static_cast<size_t>(flags.replay)
                                      : w->replay);
    for (Request& r : requests) r = stream.Next();
    ReplayResult replay = RunReplay(targets, requests);
    if (w->kind == Workload::kOfflineAc2) {
      const EngineStats& e0 = replay.engine_before;
      const EngineStats& e1 = replay.engine_after;
      batch_size = Ratio(static_cast<double>(e1.dispatched - e0.dispatched),
                         static_cast<double>(e1.batches_executed -
                                             e0.batches_executed));
      queue_wait = Ratio(
          static_cast<double>(e1.queue_ticks_sum - e0.queue_ticks_sum),
          static_cast<double>(e1.dispatched - e0.dispatched));
    }
    metrics = std::move(replay.metrics);
    metrics.push_back({"serving.batch_size_mean", batch_size, "count"});
    metrics.push_back({"serving.queue_wait_ms_mean", queue_wait, "ms"});
    metrics.push_back({"core.fused_width_mean", fused_width, "count"});
    metrics.push_back({"graph.cache_hit_rate", hit_rate, "ratio"});
    metrics.push_back({"graph.cache_resident_mb", resident_mb, "MB"});
    metrics.push_back({"graph.cache_entry_kb", entry_kb, "KB"});
    metrics.push_back({"load.p90_ms", p90, "ms"});
    metrics.push_back({"load.p99_ms", p99, "ms"});
    metrics.push_back(
        {"trace.throughput_rps", p.saturation.Throughput(), "1/s"});
    failed += replay.failures;
    mismatches += replay.mismatches;
    std::fprintf(stderr,
                 "# replay: %zu requests, %llu failures, %llu differ from "
                 "QueryBatch\n",
                 requests.size(),
                 static_cast<unsigned long long>(replay.failures),
                 static_cast<unsigned long long>(replay.mismatches));
    if (!flags.trace_out.empty()) WriteSpans(flags.trace_out, replay.spans);
  }
  failed += mismatches;
  const double peak_rss_mb = PeakRssMb();
  stack.reset();

  for (int k = 1; k < kSetups; ++k) {
    SetupTimes times;
    Population unused;
    if (auto again = Setup(*w, flags.fleet, seed, &unused, &times);
        !again.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   again.status().ToString().c_str());
      return 2;
    }
    setups.push_back(times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(values);
  };
  if (trace) {
    metrics.push_back(
        {"data.dataset_load_ms", median_of(&SetupTimes::dataset_ms), "ms"});
    metrics.push_back({"data.checkpoint_load_ms",
                       median_of(&SetupTimes::checkpoint_ms), "ms"});
    metrics.push_back(
        {"setup.warmup_ms", median_of(&SetupTimes::warmup_ms), "ms"});
  } else {
    metrics = {
        {"setup_s", median_of(&SetupTimes::total_s), "s"},
        {"p50_ms", p50, "ms"},
        {"throughput_rps", p.saturation.Throughput(), "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  if (mismatches > 0) {
    PrintResult(false, attempted, failed, metrics);
    return 1;
  }
  if (late_p90 > kMaxLateP90Ms || p99 > kMaxNominalP99Ms ||
      p.nominal.failed > 0) {
    std::fprintf(stderr,
                 "INVALID run: generator late p90 %.3f ms (limit %.1f), "
                 "nominal p99 %.3f ms (limit %.1f), nominal failures %llu\n",
                 late_p90, kMaxLateP90Ms, p99, kMaxNominalP99Ms,
                 static_cast<unsigned long long>(p.nominal.failed));
    return 3;
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace longtail::e2e

int main(int argc, char** argv) {
  using namespace longtail;
  e2e::Flags flags;
  FlagParser parser;
  parser.AddString("workload", &flags.workload,
                   "head_active | tail_uniform | http_head | offline_ac2");
  parser.AddInt("seed", &flags.seed, "workload seed");
  parser.AddDouble("seconds", &flags.seconds, "measured seconds per run");
  parser.AddInt("trace", &flags.trace,
                "1 = replay level by level and report per-layer metrics");
  parser.AddString("fleet", &flags.fleet,
                   "checkpoint fleet directory (dataset.bin, *.ckpt)");
  parser.AddString("trace_out", &flags.trace_out,
                   "traced runs: write the replay's spans here as CSV");
  parser.AddInt("replay", &flags.replay,
                "traced runs: requests to replay (0 = the workload's "
                "default)");
  parser.AddBool("prepare", &flags.prepare,
                 "write the checkpoint fleet to --fleet and exit");
  if (const Status st = parser.Parse(argc, argv); !st.ok()) {
    if (st.code() == StatusCode::kFailedPrecondition) return 0;  // --help
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.prepare) {
    const Status st = e2e::Prepare(flags.fleet);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }
  return e2e::Run(flags);
}
