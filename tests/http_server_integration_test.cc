// End-to-end socket integration for the HTTP serving front: a real
// ServingEngine cold-started from a checkpoint directory, a real
// HttpServer on an ephemeral loopback port, and real TCP clients.
//
// Contracts locked down here:
//  1. Parity — top-k items and candidate scores served over HTTP by N
//     concurrent keep-alive clients are bit-identical to a direct
//     QueryBatch against the same checkpoint-loaded model. JSON is part
//     of the serving path, so this also pins the writer's shortest-round-
//     trip double formatting end to end.
//  2. Typed failure taxonomy on the wire — a full engine queue answers
//     the 429 ResourceExhausted envelope without blocking; a dead-on-
//     arrival deadline (deadline_ms: 0) answers the 504 DeadlineExceeded
//     envelope; an unknown model 404; a malformed body 400.
//  3. /metrics under traffic parses with the Prometheus text checker and
//     carries the longtail_http_* request/response/latency series next to
//     the engine series.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "http/http_client.h"
#include "http/http_json.h"
#include "http/http_server.h"
#include "http/serving_http.h"
#include "serving/model_registry.h"
#include "serving/serving_engine.h"
#include "prometheus_text_checker.h"

namespace longtail {
namespace {

namespace fs = std::filesystem;

class HttpServerIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 80;
    spec.num_items = 60;
    spec.mean_user_degree = 8;
    spec.min_user_degree = 3;
    spec.num_genres = 4;
    spec.seed = 90125;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);

    // Fit once, checkpoint to disk: the server under test cold-starts
    // from this directory, never from the fitted instances.
    ckpt_dir_ = new fs::path(fs::temp_directory_path() /
                             "longtail_http_integration_ckpts");
    fs::remove_all(*ckpt_dir_);
    fs::create_directories(*ckpt_dir_);
    {
      AbsorbingTimeRecommender at;
      ASSERT_TRUE(at.Fit(*data_).ok());
      ASSERT_TRUE(
          SaveModelCheckpoint(at, (*ckpt_dir_ / "at.ckpt").string()).ok());
      HittingTimeRecommender ht;
      ASSERT_TRUE(ht.Fit(*data_).ok());
      ASSERT_TRUE(
          SaveModelCheckpoint(ht, (*ckpt_dir_ / "ht.ckpt").string()).ok());
    }
  }
  static void TearDownTestSuite() {
    fs::remove_all(*ckpt_dir_);
    delete ckpt_dir_;
    ckpt_dir_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static Dataset* data_;
  static fs::path* ckpt_dir_;
};

Dataset* HttpServerIntegrationTest::data_ = nullptr;
fs::path* HttpServerIntegrationTest::ckpt_dir_ = nullptr;

/// Parses a response body, failing the test on malformed JSON.
JsonValue MustParse(const std::string& body) {
  auto parsed = ParseJson(body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

/// Asserts `body` is the error envelope and returns its code name.
std::string EnvelopeCode(const std::string& body, int expected_http) {
  const JsonValue root = MustParse(body);
  const JsonValue* error = root.Find("error");
  if (error == nullptr) {
    ADD_FAILURE() << "no error envelope in " << body;
    return "";
  }
  EXPECT_EQ(error->Find("http_status")->number_value(),
            static_cast<double>(expected_http))
      << body;
  EXPECT_FALSE(error->Find("message")->string_value().empty());
  return error->Find("code")->string_value();
}

TEST_F(HttpServerIntegrationTest, ConcurrentHttpTrafficIsBitIdenticalToDirectQueryBatch) {
  // The reference: a second, independent load of the same checkpoint,
  // queried directly (single-threaded) — the engine/HTTP stack must not
  // perturb a single bit relative to this.
  auto reference =
      LoadModelCheckpoint((*ckpt_dir_ / "at.ckpt").string(), *data_);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const std::vector<ItemId> candidates = {0, 5, 11, 17, 23, 42};
  const int kUsers = 24;
  const int kTopK = 8;
  std::vector<UserQuery> queries;
  for (UserId u = 0; u < kUsers; ++u) {
    queries.push_back({u, kTopK, candidates});
  }
  BatchOptions direct;
  direct.num_threads = 1;
  const std::vector<UserQueryResult> expected =
      reference.value()->QueryBatch(queries, direct);

  ServingEngine engine;
  auto loaded = LoadCheckpointDirIntoEngine(ckpt_dir_->string(), *data_,
                                            &engine);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  const std::string model = "AT";
  ASSERT_TRUE(engine.HasModel(model));

  ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;
  ServingHttpFront front(&engine, front_options);
  HttpServerOptions server_options;
  server_options.num_workers = 6;
  server_options.metrics = engine.metrics();
  HttpServer server(
      [&front](const RequestContext& ctx) { return front.Dispatch(ctx); },
      server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // N concurrent clients, each walking every user over one keep-alive
  // connection: recommend + score per user.
  const int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (UserId u = 0; u < kUsers; ++u) {
        // ---- /v1/recommend
        std::string body = "{\"model\":\"" + model + "\",\"user\":" +
                           std::to_string(u) +
                           ",\"top_k\":" + std::to_string(kTopK) + "}";
        auto response = client.Request("POST", "/v1/recommend", body);
        if (!response.ok() || response.value().status != 200) {
          ADD_FAILURE() << "client " << c << " user " << u << ": "
                        << (response.ok()
                                ? std::to_string(response.value().status) +
                                      " " + response.value().body
                                : response.status().ToString());
          failures.fetch_add(1);
          return;
        }
        const JsonValue rec = MustParse(response.value().body);
        const JsonValue* items = rec.Find("items");
        ASSERT_NE(items, nullptr);
        const UserQueryResult& want = expected[u];
        ASSERT_EQ(items->items().size(), want.top_k.size())
            << "user " << u;
        for (size_t k = 0; k < want.top_k.size(); ++k) {
          const JsonValue& entry = items->items()[k];
          EXPECT_EQ(entry.Find("item")->number_value(),
                    static_cast<double>(want.top_k[k].item))
              << "user " << u << " pos " << k;
          // Bit-identical: the JSON writer emits shortest-round-trip
          // doubles, so equality here is exact double equality.
          EXPECT_EQ(entry.Find("score")->number_value(),
                    want.top_k[k].score)
              << "user " << u << " pos " << k;
        }

        // ---- /v1/score
        std::string ids;
        for (const ItemId id : candidates) {
          if (!ids.empty()) ids += ",";
          ids += std::to_string(id);
        }
        body = "{\"model\":\"" + model + "\",\"user\":" + std::to_string(u) +
               ",\"items\":[" + ids + "]}";
        response = client.Request("POST", "/v1/score", body);
        if (!response.ok() || response.value().status != 200) {
          ADD_FAILURE() << "score user " << u;
          failures.fetch_add(1);
          return;
        }
        const JsonValue sc = MustParse(response.value().body);
        const JsonValue* scores = sc.Find("scores");
        ASSERT_NE(scores, nullptr);
        ASSERT_EQ(scores->items().size(), want.scores.size());
        for (size_t k = 0; k < want.scores.size(); ++k) {
          EXPECT_EQ(scores->items()[k].number_value(), want.scores[k])
              << "user " << u << " candidate " << k;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // ---- /metrics after the traffic: well-formed exposition text carrying
  // the request-level series (and the engine series beside them).
  HttpClient scraper;
  ASSERT_TRUE(scraper.Connect("127.0.0.1", server.port()).ok());
  auto metrics = scraper.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  const std::string* type = metrics.value().FindHeader("content-type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(*type, "text/plain; version=0.0.4");
  std::string checker_error;
  EXPECT_TRUE(CheckPrometheusText(metrics.value().body, &checker_error))
      << checker_error;
  const std::string& text = metrics.value().body;
  for (const char* series :
       {"longtail_http_requests_total", "longtail_http_responses_total",
        "longtail_http_request_duration_seconds_bucket",
        "longtail_http_connections_total",
        "longtail_engine_requests_submitted_total"}) {
    EXPECT_NE(text.find(series), std::string::npos)
        << "missing " << series;
  }
  EXPECT_NE(text.find("route=\"POST /v1/recommend\""), std::string::npos);
  EXPECT_NE(text.find("class=\"2xx\""), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(HttpServerIntegrationTest, QueueFullAnswers429EnvelopeWithoutBlocking) {
  // Dispatcher-less engine with a tiny queue that the test fills directly;
  // the HTTP request then hits admission control and must fail fast.
  ServingEngineOptions engine_options;
  engine_options.max_queue_depth = 2;
  engine_options.start_dispatcher = false;
  ServingEngine engine(engine_options);
  auto loaded =
      LoadCheckpointDirIntoEngine(ckpt_dir_->string(), *data_, &engine);
  ASSERT_TRUE(loaded.ok());

  // Fill the queue (futures intentionally left pending — no pump runs).
  ServeRequest filler;
  filler.user = 0;
  filler.top_k = 3;
  auto f1 = engine.Submit("AT", filler);
  auto f2 = engine.Submit("AT", filler);

  ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;
  ServingHttpFront front(&engine, front_options);
  HttpServer server(
      [&front](const RequestContext& ctx) { return front.Dispatch(ctx); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto response = client.Request(
      "POST", "/v1/recommend",
      "{\"model\":\"AT\",\"user\":1,\"top_k\":3}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 429);
  EXPECT_EQ(EnvelopeCode(response.value().body, 429), "ResourceExhausted");

  server.Stop();
  // Drain the queue so the filler futures resolve before teardown.
  engine.Pump();
  f1.get();
  f2.get();
}

TEST_F(HttpServerIntegrationTest, DeadOnArrivalDeadlineAnswers504Envelope) {
  ServingEngine engine;  // real dispatcher, 1 tick = 1 ms
  auto loaded =
      LoadCheckpointDirIntoEngine(ckpt_dir_->string(), *data_, &engine);
  ASSERT_TRUE(loaded.ok());

  ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;
  ServingHttpFront front(&engine, front_options);
  HttpServer server(
      [&front](const RequestContext& ctx) { return front.Dispatch(ctx); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // deadline_ms: 0 is the documented "already-expired budget": the front
  // answers the DeadlineExceeded envelope deterministically, before the
  // request can occupy the engine queue.
  auto response = client.Request(
      "POST", "/v1/recommend",
      "{\"model\":\"AT\",\"user\":2,\"top_k\":3,\"deadline_ms\":0}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 504);
  EXPECT_EQ(EnvelopeCode(response.value().body, 504), "DeadlineExceeded");

  server.Stop();
}

TEST_F(HttpServerIntegrationTest, BadRequestsGetTypedEnvelopes) {
  ServingEngine engine;
  auto loaded =
      LoadCheckpointDirIntoEngine(ckpt_dir_->string(), *data_, &engine);
  ASSERT_TRUE(loaded.ok());
  ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;
  front_options.max_top_k = 16;
  ServingHttpFront front(&engine, front_options);
  HttpServer server(
      [&front](const RequestContext& ctx) { return front.Dispatch(ctx); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  struct Case {
    const char* body;
    int http;
    const char* code;
  };
  const Case cases[] = {
      {"not json at all", 400, "InvalidArgument"},
      {"{\"user\":1,\"top_k\":3}", 400, "InvalidArgument"},  // no model
      {"{\"model\":\"AT\",\"top_k\":3}", 400, "InvalidArgument"},  // no user
      {"{\"model\":\"AT\",\"user\":1}", 400, "InvalidArgument"},  // no top_k
      {"{\"model\":\"AT\",\"user\":1,\"top_k\":0}", 400, "InvalidArgument"},
      {"{\"model\":\"AT\",\"user\":1,\"top_k\":17}", 400, "InvalidArgument"},
      {"{\"model\":\"AT\",\"user\":1,\"top_k\":3,\"deadline_ms\":-5}", 400,
       "InvalidArgument"},
      {"{\"model\":\"NoSuchModel\",\"user\":1,\"top_k\":3}", 404, "NotFound"},
  };
  for (const Case& c : cases) {
    auto response = client.Request("POST", "/v1/recommend", c.body);
    ASSERT_TRUE(response.ok()) << c.body;
    EXPECT_EQ(response.value().status, c.http) << c.body;
    EXPECT_EQ(EnvelopeCode(response.value().body, c.http), c.code) << c.body;
  }

  // /v1/score: empty items array is invalid.
  auto response = client.Request(
      "POST", "/v1/score", "{\"model\":\"AT\",\"user\":1,\"items\":[]}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);

  // Unknown path -> 404 envelope; wrong method -> 405 with Allow.
  response = client.Request("GET", "/v2/recommend");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 404);
  response = client.Request("GET", "/v1/recommend");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 405);
  const std::string* allow = response.value().FindHeader("allow");
  ASSERT_NE(allow, nullptr);
  EXPECT_EQ(*allow, "POST");

  server.Stop();
}

TEST_F(HttpServerIntegrationTest, PipelinedRequestsAnswerInOrder) {
  ServingEngine engine;
  auto loaded =
      LoadCheckpointDirIntoEngine(ckpt_dir_->string(), *data_, &engine);
  ASSERT_TRUE(loaded.ok());
  ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;
  ServingHttpFront front(&engine, front_options);
  HttpServer server(
      [&front](const RequestContext& ctx) { return front.Dispatch(ctx); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Two requests in one write; the server must answer both, in order.
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /readyz HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_NE(first.value().body.find("\"ok\""), std::string::npos);
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status, 200);
  EXPECT_NE(second.value().body.find("\"ready\""), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace longtail
