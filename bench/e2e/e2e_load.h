// Load generators of the end-to-end benchmark: the open-loop Poisson
// schedule and the saturating closed window against ServingEngine, the
// keep-alive HTTP connections, and the offline QueryBatch scans. Every loop
// records what its phase saw in a PhaseStats and samples responses for the
// correctness comparison (e2e_common.h).
#ifndef LONGTAIL_BENCH_E2E_E2E_LOAD_H_
#define LONGTAIL_BENCH_E2E_E2E_LOAD_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2e_common.h"
#include "http/http_client.h"
#include "http/http_json.h"
#include "serving/serving_engine.h"

namespace longtail::e2e {

/// What one measured phase saw.
struct PhaseStats {
  /// Per successful request: from its scheduled send instant (open loop)
  /// or its send instant to the reply.
  std::vector<double> latency_ms;
  /// Open loop only: how late each request left against its schedule.
  std::vector<double> late_ms;
  /// Closed loop only: completion rate of each window (offline: of each
  /// batch).
  std::vector<double> rates;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The median rate, so one noisy window does not move it.
  double Throughput() const { return Median(rates); }
  void Merge(const PhaseStats& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    rates.insert(rates.end(), other.rates.begin(), other.rates.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Open loop against ServingEngine::Submit. This thread follows the
/// Poisson schedule and never waits for a reply; a collector settles the
/// futures in submission order (per-model dispatch is FIFO) and times each
/// from its scheduled send instant, so a stall also charges the requests
/// due behind it.
inline PhaseStats RunEngineOpenLoop(ServingEngine& engine,
                                    const std::string& model,
                                    RequestStream& stream, double rate,
                                    double seconds,
                                    std::vector<Check>* checks) {
  struct InFlight {
    Request request;
    Clock::time_point scheduled;
    std::future<UserQueryResult> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool submitting = true;
  PhaseStats stats;
  std::thread collector([&] {
    uint64_t served = 0;
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || !submitting; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      UserQueryResult result = item.future.get();
      const Clock::time_point now = Clock::now();
      if (!result.status.ok()) {
        ++stats.failed;
        continue;
      }
      stats.latency_ms.push_back(Millis(now - item.scheduled));
      if (checks != nullptr && ++served % kCheckEvery == 0) {
        checks->push_back({std::move(item.request), std::move(result)});
      }
    }
  });
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + FromSeconds(seconds);
  for (Clock::time_point next = start; next < end;
       next += FromSeconds(stream.NextGapSeconds(rate))) {
    std::this_thread::sleep_until(next);
    InFlight item;
    item.request = stream.Next();
    item.scheduled = next;
    stats.late_ms.push_back(Millis(Clock::now() - next));
    item.future = engine.Submit(model, AsServeRequest(item.request));
    ++stats.attempted;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_all();
  collector.join();
  return stats;
}

/// Saturation: keeps `window` requests in flight, submitting a new one on
/// every completion. `window` stays below the engine's queue bound, so the
/// queue never rejects and the completion rate is the engine's capacity.
inline PhaseStats RunEngineClosedWindow(ServingEngine& engine,
                                        const std::string& model,
                                        RequestStream& stream, int window,
                                        double seconds,
                                        std::vector<Check>* checks) {
  struct InFlight {
    Request request;
    std::future<UserQueryResult> future;
  };
  PhaseStats stats;
  std::vector<double> done_s;
  std::deque<InFlight> inflight;
  auto submit = [&] {
    InFlight item;
    item.request = stream.Next();
    item.future = engine.Submit(model, AsServeRequest(item.request));
    ++stats.attempted;
    inflight.push_back(std::move(item));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + FromSeconds(seconds);
  for (int i = 0; i < window; ++i) submit();
  uint64_t served = 0;
  while (!inflight.empty()) {
    InFlight item = std::move(inflight.front());
    inflight.pop_front();
    UserQueryResult result = item.future.get();
    const Clock::time_point now = Clock::now();
    if (!result.status.ok()) {
      ++stats.failed;
    } else {
      if (now <= end) done_s.push_back(Seconds(now - start));
      if (checks != nullptr && ++served % kCheckEvery == 0) {
        checks->push_back({std::move(item.request), std::move(result)});
      }
    }
    if (now < end) submit();
  }
  stats.rates.push_back(WindowRate(std::move(done_s)));
  return stats;
}

inline std::string HttpPath(const Request& r) {
  return r.items.empty() ? "/v1/recommend" : "/v1/score";
}

inline std::string HttpBody(const std::string& model, const Request& r) {
  std::string body =
      "{\"model\":\"" + model + "\",\"user\":" + std::to_string(r.user);
  if (r.items.empty()) {
    body += ",\"top_k\":" + std::to_string(r.top_k);
  } else {
    body += ",\"items\":[";
    for (size_t i = 0; i < r.items.size(); ++i) {
      if (i > 0) body += ",";
      body += std::to_string(r.items[i]);
    }
    body += "]";
  }
  return body + "}";
}

/// A keep-alive connection that reconnects when the server closes it
/// (HttpServerOptions::max_requests_per_connection), as a pooled client
/// would.
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}

  Result<HttpClientResponse> Send(const std::string& method,
                                  const std::string& path,
                                  const std::string& body) {
    if (!client_.connected()) {
      LT_RETURN_IF_ERROR(client_.Connect("127.0.0.1", port_));
    }
    Result<HttpClientResponse> response = client_.Request(method, path, body);
    if (!response.ok() || !response.value().keep_alive) client_.Close();
    return response;
  }

 private:
  uint16_t port_;
  HttpClient client_;
};

/// A served HTTP response kept for the correctness comparison.
struct HttpCheck {
  Request request;
  std::string body;
};

/// Reads a /v1/recommend or /v1/score response body back into the fields
/// of a UserQueryResult; a malformed body yields a failed status.
inline UserQueryResult ParseServedBody(const std::string& body) {
  UserQueryResult out;
  Result<JsonValue> doc = ParseJson(body);
  if (!doc.ok()) {
    out.status = doc.status();
    return out;
  }
  if (const JsonValue* items = doc.value().Find("items");
      items != nullptr && items->is_array()) {
    for (const JsonValue& entry : items->items()) {
      const JsonValue* item = entry.Find("item");
      const JsonValue* score = entry.Find("score");
      if (item == nullptr || score == nullptr || !item->is_number() ||
          !score->is_number()) {
        out.status = Status::InvalidArgument("malformed items entry");
        return out;
      }
      out.top_k.push_back(
          {static_cast<ItemId>(item->number_value()), score->number_value()});
    }
  }
  if (const JsonValue* scores = doc.value().Find("scores");
      scores != nullptr && scores->is_array()) {
    for (const JsonValue& score : scores->items()) {
      if (!score.is_number()) {
        out.status = Status::InvalidArgument("malformed score");
        return out;
      }
      out.scores.push_back(score.number_value());
    }
  }
  return out;
}

/// Segment boundaries of one http_head connection: a warm-in, then
/// `cycles` times a nominal (open-loop) segment and a closed-loop segment.
struct HttpSchedule {
  Clock::time_point start;
  Clock::time_point warm_end;
  Clock::duration segment{};
  int cycles = 0;
  /// Poisson rate of this connection's open-loop segments.
  double rate = 0.0;
  /// Scrape GET /metrics once per second (connection 0 only).
  bool scrape = false;

  Clock::time_point NominalStart(int c) const {
    return warm_end + 2 * c * segment;
  }
  Clock::time_point ClosedStart(int c) const {
    return NominalStart(c) + segment;
  }
};

struct HttpConnectionResult {
  PhaseStats warm, nominal, closed;
  /// Per cycle: completion instants of its closed segment, in seconds from
  /// the segment's start.
  std::vector<std::vector<double>> closed_done_s;
  uint64_t scrapes = 0;
  uint64_t scrape_failures = 0;
  std::vector<HttpCheck> checks;
};

/// One connection of the http workload. In the warm-in and the nominal
/// segments it follows its own Poisson schedule (latency from the scheduled
/// send instant); in the closed segments it sends back to back. Every
/// /v1/score body and every kCheckEvery-th /v1/recommend body is kept for
/// checking.
inline void RunHttpConnection(uint16_t port, const std::string& model,
                              RequestStream stream,
                              const HttpSchedule& schedule,
                              HttpConnectionResult* out) {
  HttpConnection connection(port);
  out->closed_done_s.resize(schedule.cycles);
  // When the previous exchange on this connection ended: a request due
  // while the connection is busy waits for it, which its latency (from the
  // schedule) counts but the generator's lateness does not.
  Clock::time_point free_at = schedule.start;
  Clock::time_point next_scrape = schedule.start + std::chrono::seconds(1);
  auto scrape = [&] {
    ++out->scrapes;
    const auto response = connection.Send("GET", "/metrics", "");
    free_at = Clock::now();
    if (!response.ok() || response.value().status != 200) {
      ++out->scrape_failures;
    }
    next_scrape += std::chrono::seconds(1);
  };
  uint64_t recommends = 0;
  // Sends one request; returns its completion instant when it succeeded.
  auto send = [&](PhaseStats* phase, Clock::time_point from)
      -> std::optional<Clock::time_point> {
    Request request = stream.Next();
    ++phase->attempted;
    const auto response = connection.Send("POST", HttpPath(request),
                                          HttpBody(model, request));
    const Clock::time_point now = Clock::now();
    free_at = now;
    if (!response.ok() || response.value().status != 200) {
      ++phase->failed;
      return std::nullopt;
    }
    phase->latency_ms.push_back(Millis(now - from));
    if (!request.items.empty() || ++recommends % kCheckEvery == 0) {
      out->checks.push_back({std::move(request), response.value().body});
    }
    return now;
  };
  for (int c = -1; c < schedule.cycles; ++c) {
    // Open loop: the warm-in (c = -1), then nominal segment c.
    PhaseStats* phase = c < 0 ? &out->warm : &out->nominal;
    const Clock::time_point open_end =
        c < 0 ? schedule.warm_end : schedule.ClosedStart(c);
    Clock::time_point next = c < 0 ? schedule.start : schedule.NominalStart(c);
    for (;;) {
      const bool scrape_due = schedule.scrape && next_scrape <= next;
      const Clock::time_point at = scrape_due ? next_scrape : next;
      if (at >= open_end) break;
      std::this_thread::sleep_until(at);
      if (scrape_due) {
        scrape();
        continue;
      }
      phase->late_ms.push_back(Millis(Clock::now() - std::max(next, free_at)));
      send(phase, next);
      next += FromSeconds(stream.NextGapSeconds(schedule.rate));
    }
    if (c < 0) continue;
    // Closed loop: segment c.
    const Clock::time_point start = schedule.ClosedStart(c);
    const Clock::time_point end = start + schedule.segment;
    std::this_thread::sleep_until(start);
    for (Clock::time_point now = Clock::now(); now < end;
         now = Clock::now()) {
      if (schedule.scrape && now >= next_scrape) {
        scrape();
        continue;
      }
      const auto done = send(&out->closed, now);
      if (done.has_value() && *done <= end) {
        out->closed_done_s[c].push_back(Seconds(*done - start));
      }
    }
  }
}

/// Offline singles: one user per QueryBatch call on the calling thread —
/// the per-user latency of the paper's efficiency table.
inline PhaseStats RunOfflineSingles(const Recommender& model,
                                    RequestStream& stream, double seconds,
                                    std::vector<Check>* checks) {
  PhaseStats stats;
  BatchOptions options;
  options.num_threads = 1;
  const Clock::time_point end = Clock::now() + FromSeconds(seconds);
  uint64_t served = 0;
  for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
    Request request = stream.Next();
    const UserQuery query = AsQuery(request);
    std::vector<UserQueryResult> results = model.QueryBatch({&query, 1},
                                                            options);
    const Clock::time_point done = Clock::now();
    ++stats.attempted;
    if (!results[0].status.ok()) {
      ++stats.failed;
      continue;
    }
    stats.latency_ms.push_back(Millis(done - now));
    if (checks != nullptr && ++served % kCheckEvery == 0) {
      checks->push_back({std::move(request), std::move(results[0])});
    }
  }
  return stats;
}

/// Offline batches: `batch` users per QueryBatch call, fanned out on the
/// serving pool at hardware concurrency, with no cache, until `seconds`
/// have passed. Each batch contributes one rate (its users over its wall
/// time).
inline PhaseStats RunOfflineBatches(
    const Recommender& model, RequestStream& stream, size_t batch,
    double seconds, const std::function<void(int32_t)>* fused_width_observer,
    std::vector<Check>* checks) {
  PhaseStats stats;
  BatchOptions options;
  options.fused_width_observer = fused_width_observer;
  const Clock::time_point end = Clock::now() + FromSeconds(seconds);
  uint64_t served = 0;
  std::vector<Request> requests(batch);
  std::vector<UserQuery> queries(batch);
  for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
    for (size_t i = 0; i < batch; ++i) {
      requests[i] = stream.Next();
      queries[i] = AsQuery(requests[i]);
    }
    std::vector<UserQueryResult> results = model.QueryBatch(queries, options);
    const Clock::time_point done = Clock::now();
    stats.rates.push_back(static_cast<double>(batch) / Seconds(done - now));
    for (size_t i = 0; i < batch; ++i) {
      ++stats.attempted;
      if (!results[i].status.ok()) {
        ++stats.failed;
        continue;
      }
      if (checks != nullptr && ++served % kCheckEvery == 0) {
        checks->push_back({requests[i], std::move(results[i])});
      }
    }
  }
  return stats;
}

}  // namespace longtail::e2e

#endif  // LONGTAIL_BENCH_E2E_E2E_LOAD_H_
