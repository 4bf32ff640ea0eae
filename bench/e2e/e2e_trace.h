// The traced replay of the end-to-end benchmark. After the measured
// phases, the first requests of the workload's seeded stream are replayed
// at one client; each request is sent through five successively deeper
// public entry points, all seeing the same cache state (every call hits,
// or the cache is cleared before every call so every call misses):
//
//   1. HttpClient::Request           (socket, server, front, engine, model)
//   2. ServingHttpFront::Dispatch    (front, engine, model; no socket)
//   3. ServingEngine::Query          (queue, micro-batch, model)
//   4. Recommender::QueryBatch       (one query, one thread, live cache)
//   5. the decomposed pipeline       (subgraph, compile, sweep, top-k)
//
// Every call is a span carrying the request's id, so a level's self time is
// its span minus the next-deeper span of the same request. Level 5 rebuilds
// Algorithm 1 from public pieces (seeds from Dataset::UserItems, absorbing
// flags from the subgraph's node ids, AC costs from EntropyNodeCostsInto)
// and must return QueryBatch's answer bit for bit. Spans are kept in memory;
// bench_e2e writes them out once at the end.
#ifndef LONGTAIL_BENCH_E2E_E2E_TRACE_H_
#define LONGTAIL_BENCH_E2E_E2E_TRACE_H_

#include <string>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/graph_recommender_base.h"
#include "e2e_load.h"
#include "graph/markov.h"
#include "graph/subgraph_cache.h"
#include "http/http_json.h"
#include "http/http_parser.h"
#include "http/serving_http.h"
#include "serving/serving_engine.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace longtail::e2e {

/// One timed call. Level spans have no parent; pipeline stages name theirs.
struct Span {
  uint32_t request = 0;
  const char* name = "";
  const char* parent = "";
  double start_us = 0.0;  // since the replay began
  double dur_us = 0.0;
};

/// Self times of the decomposed pipeline's stages, in µs.
struct StageTimes {
  double subgraph = 0.0;  // cache lookup, or extraction + admission/plan
  double compile = 0.0;   // absorbing flags, node costs, coefficient compile
  double sweep = 0.0;     // τ truncated ranking sweeps
  double serve = 0.0;     // top-k selection or candidate scores
  double Total() const { return subgraph + compile + sweep + serve; }
};

/// Costs of single library functions on one request's inputs, in µs.
struct ProbeTimes {
  double extract = 0.0;  // ExtractSubgraphInto
  double admit = 0.0;    // SubgraphCache::Insert into a scratch cache
  double lookup = 0.0;   // SubgraphCache::Lookup hit on that cache
  double plan = 0.0;     // WalkKernel::BuildTransitions
  double fused_per_lane = 0.0;  // SweepTruncatedItemValuesBatch / lanes
};

/// Lanes of the fused-sweep probe: eight doubles per node, one cache line.
inline constexpr int32_t kProbeFusedWidth = 8;

/// Algorithm 1 for one query of an AT or AC walker, assembled from the
/// library's public functions the way GraphRecommenderBase::QueryBatch
/// runs a singleton: subgraph (from `cache` when given, else a fresh
/// extraction and transition build), compile, ranking sweep, top-k.
class DecomposedPipeline {
 public:
  DecomposedPipeline(const Recommender& model, SubgraphCache* cache)
      : walker_(dynamic_cast<const GraphRecommenderBase*>(&model)),
        cost_model_(dynamic_cast<const AbsorbingCostRecommender*>(&model)),
        data_(model.dataset()),
        cache_(cache),
        scratch_(ScratchOptions()) {
    LT_CHECK(walker_ != nullptr) << "the pipeline replays graph walkers";
    LT_CHECK(!walker_->options().exact) << "the pipeline replays the DP";
    sub_options_.max_items = walker_->options().max_subgraph_items;
  }

  DecomposedPipeline(const DecomposedPipeline&) = delete;
  DecomposedPipeline& operator=(const DecomposedPipeline&) = delete;

  UserQueryResult Run(const Request& request, StageTimes* times) {
    const BipartiteGraph& g = walker_->graph();
    seeds_.clear();
    seeds_.push_back(g.UserNode(request.user));
    for (ItemId item : data_->UserItems(request.user)) {
      seeds_.push_back(g.ItemNode(item));
    }
    key_ = SubgraphCache::Key(g.fingerprint(), seeds_, sub_options_);

    const Clock::time_point t0 = Clock::now();
    if (cache_ != nullptr) {
      if (!cache_->Lookup(key_, g, seeds_, sub_options_, &ws_)) {
        ExtractSubgraphInto(g, seeds_, sub_options_, &ws_);
        cache_->Insert(key_, g.fingerprint(), seeds_, sub_options_, ws_);
        LT_CHECK(cache_->Lookup(key_, g, seeds_, sub_options_, &ws_));
      }
      ws_.kernel.AdoptPlan(ws_.sub().plan);
    } else {
      ExtractSubgraphInto(g, seeds_, sub_options_, &ws_);
      ws_.kernel.BuildTransitions(ws_.sub().graph,
                                  WalkNormalization::kRowStochastic,
                                  ws_.sub().layout);
    }
    const Clock::time_point t1 = Clock::now();
    const Subgraph& sub = ws_.sub();
    const int32_t n = sub.graph.num_nodes();
    if (cost_model_ != nullptr) {
      local_entropy_.resize(sub.users.size());
      for (size_t lu = 0; lu < sub.users.size(); ++lu) {
        local_entropy_[lu] = cost_model_->user_entropy()[sub.users[lu]];
      }
      EntropyNodeCostsInto(sub.graph, local_entropy_,
                           cost_model_->resolved_user_jump_cost(),
                           &ws_.node_costs);
    } else {
      ws_.node_costs.assign(n, 1.0);
    }
    ws_.absorbing.assign(n, false);
    for (ItemId item : data_->UserItems(request.user)) {
      ws_.absorbing[sub.LocalItemNode(item)] = true;
    }
    ws_.kernel.CompileAbsorbingSweep(ws_.absorbing, ws_.node_costs);
    const Clock::time_point t2 = Clock::now();
    ws_.kernel.SweepTruncatedItemValues(walker_->options().iterations,
                                        &ws_.values);
    const Clock::time_point t3 = Clock::now();
    UserQueryResult result;
    if (request.items.empty()) {
      const size_t num_users = sub.users.size();
      std::vector<ScoredItem> candidates;
      candidates.reserve(sub.items.size());
      for (size_t li = 0; li < sub.items.size(); ++li) {
        const ItemId item = sub.items[li];
        if (data_->HasRating(request.user, item)) continue;
        const double value = ws_.values[num_users + li];
        if (!std::isfinite(value)) continue;
        candidates.push_back({item, -value});
      }
      result.top_k = TopKScoredItems(std::move(candidates), request.top_k);
    } else {
      result.scores.assign(request.items.size(), kUnreachableScore);
      for (size_t k = 0; k < request.items.size(); ++k) {
        const NodeId local = sub.LocalItemNode(request.items[k]);
        if (local >= 0 && std::isfinite(ws_.values[local])) {
          result.scores[k] = -ws_.values[local];
        }
      }
    }
    const Clock::time_point t4 = Clock::now();
    times->subgraph = Micros(t1 - t0);
    times->compile = Micros(t2 - t1);
    times->sweep = Micros(t3 - t2);
    times->serve = Micros(t4 - t3);
    return result;
  }

  /// Times the subgraph functions the last Run's path may have skipped,
  /// on that request's seeds, plus a fused sweep over its plan. Leaves the
  /// live cache untouched.
  ProbeTimes Probe() {
    const BipartiteGraph& g = walker_->graph();
    ProbeTimes p;
    const Clock::time_point t0 = Clock::now();
    ExtractSubgraphInto(g, seeds_, sub_options_, &probe_ws_);
    const Clock::time_point t1 = Clock::now();
    scratch_.Insert(key_, g.fingerprint(), seeds_, sub_options_, probe_ws_);
    const Clock::time_point t2 = Clock::now();
    LT_CHECK(scratch_.Lookup(key_, g, seeds_, sub_options_, &adopt_ws_));
    const Clock::time_point t3 = Clock::now();
    probe_kernel_.BuildTransitions(probe_ws_.sub().graph,
                                   WalkNormalization::kRowStochastic);
    const Clock::time_point t4 = Clock::now();
    lanes_.assign(kProbeFusedWidth, ws_.absorbing);
    ws_.kernel.CompileAbsorbingSweepBatch(lanes_, ws_.node_costs);
    const Clock::time_point t5 = Clock::now();
    ws_.kernel.SweepTruncatedItemValuesBatch(walker_->options().iterations,
                                             &block_);
    const Clock::time_point t6 = Clock::now();
    p.extract = Micros(t1 - t0);
    p.admit = Micros(t2 - t1);
    p.lookup = Micros(t3 - t2);
    p.plan = Micros(t4 - t3);
    p.fused_per_lane = Micros(t6 - t5) / kProbeFusedWidth;
    return p;
  }

  /// The subgraph the last Run walked.
  const Subgraph& sub() const { return ws_.sub(); }
  int iterations() const { return walker_->options().iterations; }

 private:
  static SubgraphCacheOptions ScratchOptions() {
    SubgraphCacheOptions options;
    options.num_shards = 1;
    options.max_entries = 4;
    return options;
  }

  const GraphRecommenderBase* walker_;
  const AbsorbingCostRecommender* cost_model_;
  const Dataset* data_;
  SubgraphCache* cache_;
  SubgraphOptions sub_options_;
  std::vector<NodeId> seeds_;
  uint64_t key_ = 0;
  std::vector<double> local_entropy_;
  WalkWorkspace ws_;
  // Probe state, separate from the pipeline's so probes never disturb it.
  SubgraphCache scratch_;
  WalkWorkspace probe_ws_;
  WalkWorkspace adopt_ws_;
  WalkKernel probe_kernel_;
  std::vector<std::vector<bool>> lanes_;
  std::vector<double> block_;
};

/// What the replay drives.
struct ReplayTargets {
  const Recommender* model = nullptr;
  std::string model_name;
  ServingEngine* engine = nullptr;
  ServingHttpFront* front = nullptr;
  uint16_t port = 0;
  SubgraphCache* cache = nullptr;
  MetricsRegistry* registry = nullptr;
  /// Clear the cache before every call, so every level takes the miss
  /// path (extraction and admission). Otherwise the caller has warmed the
  /// cache with every replayed user and every call hits.
  bool cold = false;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  /// Engine counters around the replay (singleton batches from levels
  /// 1-3).
  EngineStats engine_before, engine_after;
  uint64_t failures = 0;
  uint64_t mismatches = 0;
};

/// Function probes run on every kProbeEvery-th replayed request, /metrics
/// scrapes and exports on every kScrapeEvery-th.
inline constexpr size_t kProbeEvery = 4;
inline constexpr size_t kScrapeEvery = 8;

/// Replays `requests` one at a time. Each request visits all five levels
/// back to back, starting at a different level for each request, so host
/// noise and CPU-cache warmth from the previous call fall on every level
/// alike and cancel in the differences. Probes run after the five calls.
inline ReplayResult RunReplay(const ReplayTargets& t,
                              const std::vector<Request>& requests) {
  enum Level { kHttp, kDispatch, kQuery, kBatch, kPipeline, kLevels };
  static constexpr const char* kLevelNames[kLevels] = {
      "http.request", "front.dispatch", "engine.query", "core.query_batch",
      "pipeline"};
  ReplayResult out;
  const size_t n = requests.size();
  const Clock::time_point origin = Clock::now();
  auto span = [&](size_t request, const char* name, const char* parent,
                  Clock::time_point start, Clock::time_point end) {
    out.spans.push_back({static_cast<uint32_t>(request), name, parent,
                         Micros(start - origin), Micros(end - start)});
    return Micros(end - start);
  };

  std::vector<double> level_us[kLevels];
  std::vector<double> stage_total, subgraph_us, compile_us, sweep_us,
      topk_us, nodes, edges, sweep_mb;
  std::vector<double> extract_us, admit_us, lookup_us, plan_us, fused_us;
  std::vector<double> parse_us, decode_us, encode_us, export_us, scrape_us;
  HttpConnection connection(t.port);
  DecomposedPipeline pipeline(*t.model, t.cache);
  HttpRequestParser parser;
  BatchOptions single;
  single.num_threads = 1;
  single.subgraph_cache = t.cache;
  out.engine_before = t.engine->Stats();
  for (size_t i = 0; i < n; ++i) {
    const Request& request = requests[i];
    const UserQuery query = AsQuery(request);
    HttpRequest http_request;
    http_request.method = "POST";
    http_request.target = HttpPath(request);
    http_request.body = HttpBody(t.model_name, request);
    http_request.headers = {
        {"host", "longtail"},
        {"content-type", "application/json"},
        {"content-length", std::to_string(http_request.body.size())}};
    const RequestContext context{http_request, "replay", false};
    UserQueryResult got[kLevels];
    std::string dispatch_body;
    StageTimes stages;
    for (int j = 0; j < kLevels; ++j) {
      const Level level = static_cast<Level>((i + j) % kLevels);
      if (t.cold && t.cache != nullptr) t.cache->Clear();
      Result<HttpClientResponse> wire = Status::Internal("not sent");
      HttpResponse dispatched;
      const Clock::time_point s = Clock::now();
      switch (level) {
        case kHttp:
          wire = connection.Send("POST", http_request.target,
                                 http_request.body);
          break;
        case kDispatch:
          dispatched = t.front->Dispatch(context);
          break;
        case kQuery:
          got[level] = t.engine->Query(t.model_name, AsServeRequest(request));
          break;
        case kBatch:
          got[level] = std::move(t.model->QueryBatch({&query, 1}, single)[0]);
          break;
        case kPipeline:
          got[level] = pipeline.Run(request, &stages);
          break;
        case kLevels:
          break;
      }
      const Clock::time_point e = Clock::now();
      level_us[level].push_back(span(i, kLevelNames[level], "", s, e));
      if (level == kHttp) {
        got[level] = wire.ok() && wire.value().status == 200
                         ? ParseServedBody(wire.value().body)
                         : UserQueryResult{Status::Internal("http failed"),
                                           {}, {}};
      } else if (level == kDispatch) {
        got[level] = dispatched.status == 200
                         ? ParseServedBody(dispatched.body)
                         : UserQueryResult{Status::Internal("non-2xx"), {},
                                           {}};
        dispatch_body = std::move(dispatched.body);
      } else if (level == kPipeline) {
        double at = Micros(s - origin);
        for (const auto& [name, us] :
             {std::pair{"pipeline.subgraph", stages.subgraph},
              std::pair{"pipeline.compile", stages.compile},
              std::pair{"pipeline.sweep", stages.sweep},
              std::pair{"pipeline.serve", stages.serve}}) {
          out.spans.push_back(
              {static_cast<uint32_t>(i), name, "pipeline", at, us});
          at += us;
        }
      }
    }
    // Every level must return level 4's answer, exactly.
    for (int level = 0; level < kLevels; ++level) {
      if (!got[level].status.ok()) {
        ++out.failures;
      } else if (level != kBatch && !SameResult(got[level], got[kBatch])) {
        ++out.mismatches;
      }
    }

    stage_total.push_back(stages.Total());
    subgraph_us.push_back(stages.subgraph);
    compile_us.push_back(stages.compile);
    sweep_us.push_back(stages.sweep);
    if (request.items.empty()) topk_us.push_back(stages.serve);
    const Subgraph& sub = pipeline.sub();
    nodes.push_back(sub.graph.num_nodes());
    edges.push_back(static_cast<double>(sub.graph.num_edges()));
    // Computed, not measured: per half-step one side's CSR columns and
    // weights (12 B per edge) plus per-row pointer, degree, coefficient and
    // value traffic (48 B per row of that side).
    sweep_mb.push_back(pipeline.iterations() *
                       (12.0 * edges.back() + 24.0 * nodes.back()) / 1e6);

    // Probes, after the five calls so they warm nothing those calls use.
    const std::string bytes =
        "POST " + http_request.target +
        " HTTP/1.1\r\nHost: longtail\r\nContent-Type: application/json\r\n"
        "Content-Length: " +
        std::to_string(http_request.body.size()) + "\r\n\r\n" +
        http_request.body;
    parser.Reset();
    size_t consumed = 0;
    Clock::time_point p0 = Clock::now();
    const auto parsed = parser.Consume(bytes, &consumed);
    parse_us.push_back(span(i, "probe.parse", "", p0, Clock::now()));
    if (parsed != HttpRequestParser::ParseResult::kComplete) ++out.failures;
    p0 = Clock::now();
    const Result<JsonValue> decoded = ParseJson(http_request.body);
    decode_us.push_back(span(i, "probe.json_decode", "", p0, Clock::now()));
    if (!decoded.ok()) ++out.failures;
    const Result<JsonValue> answer = ParseJson(dispatch_body);
    if (answer.ok()) {
      p0 = Clock::now();
      const std::string encoded = WriteJson(answer.value());
      encode_us.push_back(span(i, "probe.json_encode", "", p0, Clock::now()));
      if (encoded.empty()) ++out.failures;
    }
    if (i % kProbeEvery == 0) {
      const ProbeTimes p = pipeline.Probe();
      extract_us.push_back(p.extract);
      admit_us.push_back(p.admit);
      lookup_us.push_back(p.lookup);
      plan_us.push_back(p.plan);
      fused_us.push_back(p.fused_per_lane);
    }
    if (i % kScrapeEvery == 0) {
      p0 = Clock::now();
      const auto scrape = connection.Send("GET", "/metrics", "");
      scrape_us.push_back(span(i, "http.metrics_scrape", "", p0, Clock::now()));
      if (!scrape.ok() || scrape.value().status != 200) ++out.failures;
      p0 = Clock::now();
      const std::string text = t.registry->ExportText();
      export_us.push_back(span(i, "probe.export_text", "", p0, Clock::now()));
      if (text.empty()) ++out.failures;
    }
  }
  out.engine_after = t.engine->Stats();

  // The same requests as 64-query batches at hardware concurrency.
  double batched_us = 0.0;
  {
    BatchOptions options;
    options.subgraph_cache = t.cache;
    std::vector<UserQuery> queries;
    for (size_t begin = 0; begin < n; begin += 64) {
      if (t.cold && t.cache != nullptr) t.cache->Clear();
      queries.clear();
      for (size_t i = begin; i < std::min(n, begin + 64); ++i) {
        queries.push_back(AsQuery(requests[i]));
      }
      const Clock::time_point s = Clock::now();
      for (const UserQueryResult& r : t.model->QueryBatch(queries, options)) {
        if (!r.status.ok()) ++out.failures;
      }
      batched_us += Micros(Clock::now() - s);
    }
  }

  const double rtt = Mean(level_us[kHttp]);
  const double dispatch = Mean(level_us[kDispatch]);
  const double served = Mean(level_us[kQuery]);
  const double batch = Mean(level_us[kBatch]);
  auto add = [&](const char* name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  add("http.rtt_us", rtt, "us");
  add("http.dispatch_us", dispatch, "us");
  add("http.transport_us", rtt - dispatch, "us");
  add("http.front_us", dispatch - served, "us");
  add("http.parse_us", Mean(parse_us), "us");
  add("http.json_decode_us", Mean(decode_us), "us");
  add("http.json_encode_us", Mean(encode_us), "us");
  add("http.metrics_scrape_us", Mean(scrape_us), "us");
  add("serving.query_us", served, "us");
  add("serving.overhead_us", served - batch, "us");
  add("core.query_batch_us", batch, "us");
  add("core.batch_us_per_query", batched_us / static_cast<double>(n), "us");
  add("core.topk_us", Mean(topk_us), "us");
  add("graph.subgraph_us", Mean(subgraph_us), "us");
  add("graph.lookup_us", Mean(lookup_us), "us");
  add("graph.extract_us", Mean(extract_us), "us");
  add("graph.admit_us", Mean(admit_us), "us");
  add("graph.plan_us", Mean(plan_us), "us");
  add("graph.compile_us", Mean(compile_us), "us");
  add("graph.sweep_us", Mean(sweep_us), "us");
  add("graph.sweep_fused_us_per_lane", Mean(fused_us), "us");
  add("graph.subgraph_nodes", Mean(nodes), "count");
  add("graph.subgraph_edges", Mean(edges), "count");
  add("graph.sweep_mb_per_query", Mean(sweep_mb), "MB");
  add("util.export_text_us", Mean(export_us), "us");
  add("trace.stage_sum_ratio", Mean(stage_total) / batch, "ratio");
  return out;
}

}  // namespace longtail::e2e

#endif  // LONGTAIL_BENCH_E2E_E2E_TRACE_H_
