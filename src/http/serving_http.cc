#include "http/serving_http.h"

#include <chrono>
#include <utility>
#include <vector>

#include "http/http_envelope.h"

namespace longtail {

namespace {

constexpr int32_t kUserIdMax = INT32_MAX;

}  // namespace

ServingHttpFront::ServingHttpFront(ServingEngine* engine,
                                   ServingHttpFrontOptions options)
    : engine_(engine),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : engine->metrics()),
      ready_(options.ready_at_start) {
  router_.Handle("POST", "/v1/recommend", [this](const RequestContext& ctx) {
    return HandleRecommend(ctx);
  });
  router_.Handle("POST", "/v1/score", [this](const RequestContext& ctx) {
    return HandleScore(ctx);
  });
  router_.Handle("GET", "/healthz", [this](const RequestContext& ctx) {
    return HandleHealthz(ctx);
  });
  router_.Handle("GET", "/readyz", [this](const RequestContext& ctx) {
    return HandleReadyz(ctx);
  });
  router_.Handle("GET", "/metrics", [this](const RequestContext& ctx) {
    return HandleMetrics(ctx);
  });
  router_.Handle("GET", "/", [this](const RequestContext& ctx) {
    return HandleRoot(ctx);
  });

  responses_2xx_ = metrics_->RegisterCounter(
      "longtail_http_responses_total", "HTTP responses by status class.",
      {{"class", "2xx"}});
  responses_4xx_ = metrics_->RegisterCounter(
      "longtail_http_responses_total", "HTTP responses by status class.",
      {{"class", "4xx"}});
  responses_5xx_ = metrics_->RegisterCounter(
      "longtail_http_responses_total", "HTTP responses by status class.",
      {{"class", "5xx"}});
  request_duration_ = metrics_->RegisterHistogram(
      "longtail_http_request_duration_seconds",
      "Wall time spent in routing + handler per request.",
      ExponentialBuckets(0.0001, 4.0, 10));
}

HttpResponse ServingHttpFront::Dispatch(const RequestContext& context) {
  const auto start = std::chrono::steady_clock::now();

  // Route label: "METHOD path" for known paths, "unmatched" otherwise —
  // bounded cardinality even under hostile path scans.
  std::string route = "unmatched";
  const std::string path(context.request.path());
  for (const std::string& name : router_.RouteNames()) {
    if (name == context.request.method + " " + path) {
      route = name;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(route_counter_mu_);
    Counter*& counter = route_counters_[route];
    if (counter == nullptr) {
      counter = metrics_->RegisterCounter("longtail_http_requests_total",
                                          "HTTP requests by route.",
                                          {{"route", route}});
    }
    counter->Increment();
  }

  const HttpResponse response = router_.Dispatch(context);

  if (response.status < 300) {
    responses_2xx_->Increment();
  } else if (response.status < 500) {
    responses_4xx_->Increment();
  } else {
    responses_5xx_->Increment();
  }
  request_duration_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return response;
}

bool ServingHttpFront::ParseCommon(const RequestContext& context,
                                   const JsonValue& body, ParsedCommon* out,
                                   HttpResponse* error) {
  if (context.draining) {
    *error = ErrorResponse(
        Status::FailedPrecondition("server is draining; retry elsewhere"));
    return false;
  }
  if (!ready()) {
    *error = ErrorResponse(Status::FailedPrecondition(
        "server is not ready (models still loading)"));
    return false;
  }
  if (!body.is_object()) {
    *error = ErrorResponse(
        Status::InvalidArgument("request body must be a JSON object"));
    return false;
  }
  const JsonValue* model = body.Find("model");
  if (model == nullptr || !model->is_string() ||
      model->string_value().empty()) {
    *error = ErrorResponse(
        Status::InvalidArgument("'model' (non-empty string) is required"));
    return false;
  }
  out->model = model->string_value();
  const JsonValue* user = body.Find("user");
  if (user == nullptr) {
    *error =
        ErrorResponse(Status::InvalidArgument("'user' (integer) is required"));
    return false;
  }
  Result<int64_t> user_id = user->AsInt64(0, kUserIdMax);
  if (!user_id.ok()) {
    *error = ErrorResponse(Status::InvalidArgument(
        "'user': " + user_id.status().message()));
    return false;
  }
  out->user = static_cast<UserId>(user_id.value());

  uint64_t deadline_ms = options_.default_deadline_ms;
  if (const JsonValue* deadline = body.Find("deadline_ms");
      deadline != nullptr) {
    Result<int64_t> parsed =
        deadline->AsInt64(0, static_cast<int64_t>(1) << 52);
    if (!parsed.ok()) {
      *error = ErrorResponse(Status::InvalidArgument(
          "'deadline_ms': " + parsed.status().message()));
      return false;
    }
    deadline_ms = static_cast<uint64_t>(parsed.value());
    if (deadline_ms > options_.max_deadline_ms) {
      deadline_ms = options_.max_deadline_ms;
    }
  }
  // A zero budget is expired by definition: answer 504 without occupying
  // the queue, mirroring the engine's strict `now > deadline` semantics.
  // (Submitting with deadline_tick == NowTicks() would *usually* expire at
  // the next dispatch tick, but at engine tick 0 the sum collides with the
  // deadline_tick == 0 "no deadline" sentinel — the front decides instead,
  // deterministically at any tick.)
  if (deadline_ms == 0) {
    *error = ErrorResponse(Status::DeadlineExceeded(
        "deadline_ms is 0: the request's budget is already spent"));
    return false;
  }
  // Relative budget -> absolute engine tick (SteadyTickClock: 1 tick =
  // 1 ms).
  out->deadline_tick = engine_->NowTicks() + deadline_ms;
  return true;
}

UserQueryResult ServingHttpFront::SubmitAndWait(const std::string& model,
                                                const ServeRequest& request) {
  std::future<UserQueryResult> future = engine_->Submit(model, request);
  // Rejections (queue full, unknown model, dead on arrival, shutdown)
  // resolve immediately — surface them without blocking, which is what
  // makes the 429 fail fast instead of waiting out the deadline.
  if (future.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    return future.get();
  }
  if (!engine_->dispatcher_running()) {
    // Dispatcher-less engine (deterministic tests): pump to completion
    // ourselves, mirroring what blocking Query does.
    engine_->Pump();
  }
  return future.get();
}

HttpResponse ServingHttpFront::HandleRecommend(const RequestContext& context) {
  Result<JsonValue> body = ParseJson(context.request.body);
  if (!body.ok()) {
    return ErrorResponse(Status::InvalidArgument(
        "invalid JSON body: " + body.status().message()));
  }
  ParsedCommon common;
  HttpResponse error;
  if (!ParseCommon(context, body.value(), &common, &error)) return error;

  const JsonValue* top_k = body.value().Find("top_k");
  if (top_k == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("'top_k' (integer >= 1) is required"));
  }
  Result<int64_t> k = top_k->AsInt64(1, options_.max_top_k);
  if (!k.ok()) {
    return ErrorResponse(
        Status::InvalidArgument("'top_k': " + k.status().message()));
  }

  ServeRequest request;
  request.user = common.user;
  request.top_k = static_cast<int>(k.value());
  request.deadline_tick = common.deadline_tick;
  const UserQueryResult result = SubmitAndWait(common.model, request);
  if (!result.status.ok()) return ErrorResponse(result.status);

  JsonValue items = JsonValue::Array();
  for (const ScoredItem& scored : result.top_k) {
    JsonValue entry = JsonValue::Object();
    entry.Set("item", JsonValue::Number(scored.item));
    entry.Set("score", JsonValue::Number(scored.score));
    items.Append(std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("model", JsonValue::String(common.model));
  root.Set("user", JsonValue::Number(common.user));
  root.Set("items", std::move(items));

  HttpResponse response;
  response.body = WriteJson(root);
  return response;
}

HttpResponse ServingHttpFront::HandleScore(const RequestContext& context) {
  Result<JsonValue> body = ParseJson(context.request.body);
  if (!body.ok()) {
    return ErrorResponse(Status::InvalidArgument(
        "invalid JSON body: " + body.status().message()));
  }
  ParsedCommon common;
  HttpResponse error;
  if (!ParseCommon(context, body.value(), &common, &error)) return error;

  const JsonValue* items = body.value().Find("items");
  if (items == nullptr || !items->is_array() || items->items().empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "'items' (non-empty array of item ids) is required"));
  }
  if (items->items().size() > options_.max_score_items) {
    return ErrorResponse(Status::InvalidArgument(
        "'items' has " + std::to_string(items->items().size()) +
        " entries; max is " + std::to_string(options_.max_score_items)));
  }
  // Handler-local storage for the score span. SubmitAndWait always blocks
  // until the future resolves, so this vector outlives the request — the
  // ServeRequest::score_items lifetime contract.
  std::vector<ItemId> item_ids;
  item_ids.reserve(items->items().size());
  for (const JsonValue& item : items->items()) {
    Result<int64_t> id = item.AsInt64(0, kUserIdMax);
    if (!id.ok()) {
      return ErrorResponse(Status::InvalidArgument(
          "'items' entries must be integer ids: " + id.status().message()));
    }
    item_ids.push_back(static_cast<ItemId>(id.value()));
  }

  ServeRequest request;
  request.user = common.user;
  request.score_items = item_ids;
  request.deadline_tick = common.deadline_tick;
  const UserQueryResult result = SubmitAndWait(common.model, request);
  if (!result.status.ok()) return ErrorResponse(result.status);

  JsonValue scores = JsonValue::Array();
  for (const double score : result.scores) {
    scores.Append(JsonValue::Number(score));
  }
  JsonValue root = JsonValue::Object();
  root.Set("model", JsonValue::String(common.model));
  root.Set("user", JsonValue::Number(common.user));
  root.Set("scores", std::move(scores));

  HttpResponse response;
  response.body = WriteJson(root);
  return response;
}

HttpResponse ServingHttpFront::HandleHealthz(const RequestContext& context) {
  (void)context;
  HttpResponse response;
  response.body = WriteJson(
      JsonValue::Object().Set("status", JsonValue::String("ok")));
  return response;
}

HttpResponse ServingHttpFront::HandleReadyz(const RequestContext& context) {
  if (context.draining) {
    return ErrorResponse(
        Status::FailedPrecondition("server is draining"));
  }
  if (!ready()) {
    return ErrorResponse(Status::FailedPrecondition(
        "server is not ready (models still loading)"));
  }
  JsonValue models = JsonValue::Array();
  for (const std::string& name : engine_->ModelNames()) {
    models.Append(JsonValue::String(name));
  }
  JsonValue root = JsonValue::Object();
  root.Set("status", JsonValue::String("ready"));
  root.Set("models", std::move(models));
  HttpResponse response;
  response.body = WriteJson(root);
  return response;
}

HttpResponse ServingHttpFront::HandleMetrics(const RequestContext& context) {
  (void)context;
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = metrics_->ExportText();
  return response;
}

HttpResponse ServingHttpFront::HandleRoot(const RequestContext& context) {
  (void)context;
  JsonValue routes = JsonValue::Array();
  for (const std::string& name : router_.RouteNames()) {
    routes.Append(JsonValue::String(name));
  }
  JsonValue root = JsonValue::Object();
  root.Set("service", JsonValue::String("longtail-serving"));
  root.Set("routes", std::move(routes));
  HttpResponse response;
  response.body = WriteJson(root);
  return response;
}

}  // namespace longtail
