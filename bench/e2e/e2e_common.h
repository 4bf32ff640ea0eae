// Shared pieces of the end-to-end benchmark (bench_e2e.cc): clocks, sample
// statistics, the seeded request streams every workload draws from, the
// correctness comparison, and the one-line JSON result.
#ifndef LONGTAIL_BENCH_E2E_E2E_COMMON_H_
#define LONGTAIL_BENCH_E2E_E2E_COMMON_H_

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "data/dataset.h"
#include "serving/request_queue.h"
#include "util/random.h"

namespace longtail::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  return sample[std::clamp<size_t>(rank, 1, sample.size()) - 1];
}

inline double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

/// Median, averaging the two middle values of an even-sized sample.
inline double Median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid]
                                : 0.5 * (sample[mid - 1] + sample[mid]);
}

/// The q-percentile of `sample` (in arrival order) taken over consecutive
/// bins of at least `min_bin` values, then the median across bins. A
/// noisy second on a shared host then spoils one bin instead of the run.
/// min_bin = 1000 leaves ten values beyond a bin's p99.
inline double BinnedPercentile(const std::vector<double>& sample, double q,
                               size_t min_bin = 1000) {
  const size_t bins = std::max<size_t>(1, sample.size() / min_bin);
  std::vector<double> per_bin;
  for (size_t b = 0; b < bins; ++b) {
    per_bin.push_back(Percentile(
        {sample.begin() + static_cast<ptrdiff_t>(sample.size() * b / bins),
         sample.begin() +
             static_cast<ptrdiff_t>(sample.size() * (b + 1) / bins)},
        q));
  }
  return Median(per_bin);
}

/// Completion rate of one closed-loop window from its completion instants
/// (seconds from the window's start). Engine batches complete in bursts, so
/// counting completions per fixed bin is quantized by the batch size;
/// instead the rate runs from the first completion to the last, leaving out
/// the first burst, which lies at the start of that span.
inline double WindowRate(std::vector<double> done_s) {
  if (done_s.size() < 2) return 0.0;
  std::sort(done_s.begin(), done_s.end());
  const double first = done_s.front();
  const double span = done_s.back() - first;
  constexpr double kBurstSeconds = 0.002;
  size_t first_burst = 0;
  while (first_burst < done_s.size() &&
         done_s[first_burst] <= first + kBurstSeconds) {
    ++first_burst;
  }
  return span > 0.0
             ? static_cast<double>(done_s.size() - first_burst) / span
             : 0.0;
}

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// One request of a workload: top-k for `user`, or scores for `items` when
/// that list is non-empty (the two HTTP endpoints).
struct Request {
  UserId user = 0;
  int top_k = 0;
  std::vector<ItemId> items;
};

inline UserQuery AsQuery(const Request& r) {
  UserQuery q;
  q.user = r.user;
  q.top_k = r.top_k;
  q.score_items = r.items;
  return q;
}

/// The returned request borrows `r.items`; keep `r` alive until the
/// request's future resolves.
inline ServeRequest AsServeRequest(const Request& r) {
  ServeRequest s;
  s.user = r.user;
  s.top_k = r.top_k;
  s.score_items = r.items;
  return s;
}

/// Who sends requests and what they ask for. The users are fixed by the
/// corpus; a seed only changes the order of requests, their gaps and the
/// score candidates.
struct Population {
  std::vector<UserId> users;
  /// Request weight of each user. Empty: visit `users` in order, wrapping
  /// around (the offline scan).
  std::vector<double> weights;
  /// Share of requests that score `score_items` random candidates instead
  /// of asking for the top `top_k`.
  double score_fraction = 0.0;
  size_t score_items = 0;
  int top_k = 10;
  int32_t num_items = 0;
};

/// Every user, most ratings first (ties by id). A user's rating count is
/// the benchmark's measure of how active, and so how often served, a user
/// is.
inline std::vector<UserId> UsersByActivity(const Dataset& data) {
  std::vector<UserId> users(static_cast<size_t>(data.num_users()));
  std::iota(users.begin(), users.end(), 0);
  std::stable_sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    return data.UserItems(a).size() > data.UserItems(b).size();
  });
  return users;
}

/// splitmix64 finalizer over (seed, substream).
inline uint64_t MixSeed(uint64_t seed, uint64_t substream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (substream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A deterministic request sequence for one generator (a thread or a
/// connection): the same (population, seed, substream) always yields the
/// same requests and the same Poisson gaps. Users and gaps come from
/// separate generators, so the request sequence does not depend on the
/// schedule.
class RequestStream {
 public:
  RequestStream(const Population& pop, uint64_t seed, uint64_t substream)
      : pop_(&pop),
        rng_(MixSeed(seed, 2 * substream + 1)),
        gap_rng_(MixSeed(seed, 2 * substream + 2)) {
    if (!pop.weights.empty()) sampler_.emplace(pop.weights);
  }

  Request Next() {
    Request r;
    if (sampler_.has_value()) {
      r.user = pop_->users[sampler_->Sample(&rng_)];
    } else {
      r.user = pop_->users[next_++ % pop_->users.size()];
    }
    if (pop_->score_fraction > 0.0 &&
        rng_.NextDouble() < pop_->score_fraction) {
      while (r.items.size() < pop_->score_items) {
        const ItemId item = static_cast<ItemId>(
            rng_.NextUint64(static_cast<uint64_t>(pop_->num_items)));
        if (std::find(r.items.begin(), r.items.end(), item) ==
            r.items.end()) {
          r.items.push_back(item);
        }
      }
    } else {
      r.top_k = pop_->top_k;
    }
    return r;
  }

  /// Exponential gap of a Poisson schedule at `rate` requests/second.
  double NextGapSeconds(double rate) {
    return -std::log1p(-gap_rng_.NextDouble()) / rate;
  }

 private:
  const Population* pop_;
  std::optional<DiscreteSampler> sampler_;
  Rng rng_;
  Rng gap_rng_;
  size_t next_ = 0;
};

/// A served response kept for comparison with a direct, single-thread,
/// cache-less QueryBatch of the same request.
struct Check {
  Request request;
  UserQueryResult got;
};

/// Responses are sampled for checking at this stride.
inline constexpr uint64_t kCheckEvery = 64;

/// Exact equality of statuses' success, items and scores (== on doubles).
inline bool SameResult(const UserQueryResult& a, const UserQueryResult& b) {
  if (a.status.ok() != b.status.ok()) return false;
  if (a.top_k.size() != b.top_k.size() || a.scores != b.scores) return false;
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    if (a.top_k[i].item != b.top_k[i].item ||
        a.top_k[i].score != b.top_k[i].score) {
      return false;
    }
  }
  return true;
}

/// Recomputes every check with a direct single-thread, cache-less
/// QueryBatch (the checks spread over one thread per core) and returns the
/// number of responses that differ.
inline uint64_t CountMismatches(const Recommender& model,
                                const std::vector<Check>& checks) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    workers.emplace_back([&] {
      BatchOptions options;
      options.num_threads = 1;
      for (size_t i = next++; i < checks.size(); i = next++) {
        const UserQuery query = AsQuery(checks[i].request);
        const std::vector<UserQueryResult> reference =
            model.QueryBatch({&query, 1}, options);
        if (!SameResult(reference[0], checks[i].got)) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return mismatches.load();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal form that round-trips the double (all its digits).
inline std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// The result line: the last line this process writes to standard output.
inline void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatDouble(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace longtail::e2e

#endif  // LONGTAIL_BENCH_E2E_E2E_COMMON_H_
