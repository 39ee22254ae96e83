#ifndef MSQL_RUNTIME_RATE_LIMITER_H_
#define MSQL_RUNTIME_RATE_LIMITER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace msql {

// Lock-free token-bucket rate limiter (GCRA formulation: the bucket is a
// single "theoretical arrival time" timestamp, advanced by CAS, instead of
// a token count plus a refill thread). Admission control consults one
// global instance and one per user per scheduler; a query whose token is
// not free yet reserves it ahead of time and is queued to start when it
// falls due, so no thread sleeps on a token (docs/CONCURRENCY.md).
//
// rate_per_sec <= 0 disables the limiter (Reserve always admits at once),
// so "no rate limit" costs one predictable branch.
class RateLimiter {
 public:
  RateLimiter() = default;
  RateLimiter(double rate_per_sec, int64_t burst) {
    Configure(rate_per_sec, burst);
  }

  // (Re)configures the limiter with a full bucket. Not safe to call
  // concurrently with Reserve; the scheduler configures its limiters at
  // construction.
  void Configure(double rate_per_sec, int64_t burst);

  // Takes one token, reserving it at most `max_wait_us` ahead: the GCRA
  // arrival time may move into the future, and *wait_us says how long the
  // caller must delay the guarded work. Returns false, taking nothing, when
  // the next token is further away than that; *wait_us then holds how far.
  // max_wait_us = 0 takes only a token that is free now.
  bool Reserve(int64_t max_wait_us, int64_t* wait_us);

  bool enabled() const { return interval_us_ > 0; }

 private:
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  int64_t interval_us_ = 0;  // microseconds per token; 0 = unlimited
  int64_t tau_us_ = 0;       // burst allowance: (burst - 1) * interval
  std::chrono::steady_clock::time_point epoch_{
      std::chrono::steady_clock::now()};
  // GCRA theoretical arrival time, microseconds since epoch_.
  std::atomic<int64_t> tat_us_{0};
};

// A lazily-populated map of independent RateLimiters sharing one
// configuration, keyed by an arbitrary string — the scheduler keys by
// Session::user() so one user flooding statements, embedded or over the
// wire, exhausts only its own token bucket (docs/CONCURRENCY.md). ForKey
// returns a stable reference (limiters are heap-allocated and never
// removed); Reserve on the result is lock-free as usual, the registry lock
// covers only map lookup/insert.
class RateLimiterRegistry {
 public:
  RateLimiterRegistry(double rate_per_sec, int64_t burst)
      : rate_per_sec_(rate_per_sec), burst_(burst) {}

  RateLimiterRegistry(const RateLimiterRegistry&) = delete;
  RateLimiterRegistry& operator=(const RateLimiterRegistry&) = delete;

  // Returns the limiter for `key`, creating it (full bucket) on first use.
  RateLimiter& ForKey(const std::string& key);

  bool enabled() const { return rate_per_sec_ > 0.0; }

 private:
  const double rate_per_sec_;
  const int64_t burst_;
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<RateLimiter>> limiters_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_RATE_LIMITER_H_
