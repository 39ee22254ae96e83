#include "runtime/rate_limiter.h"

#include <algorithm>

namespace msql {

void RateLimiter::Configure(double rate_per_sec, int64_t burst) {
  if (rate_per_sec <= 0.0) {
    interval_us_ = 0;
    tau_us_ = 0;
    tat_us_.store(0, std::memory_order_relaxed);
    return;
  }
  interval_us_ = std::max<int64_t>(1, static_cast<int64_t>(1e6 / rate_per_sec));
  tau_us_ = (std::max<int64_t>(1, burst) - 1) * interval_us_;
  epoch_ = std::chrono::steady_clock::now();
  tat_us_.store(0, std::memory_order_relaxed);
}

bool RateLimiter::Reserve(int64_t max_wait_us, int64_t* wait_us) {
  *wait_us = 0;
  if (interval_us_ == 0) return true;
  int64_t now = NowUs();
  int64_t tat = tat_us_.load(std::memory_order_relaxed);
  while (true) {
    // The token conforms once the theoretical arrival time, less the burst
    // allowance, has passed; reserving it early is waiting out the gap.
    *wait_us = std::max<int64_t>(0, tat - tau_us_ - now);
    if (*wait_us > max_wait_us) return false;
    int64_t next_tat = std::max(tat, now) + interval_us_;
    if (tat_us_.compare_exchange_weak(tat, next_tat,
                                      std::memory_order_relaxed)) {
      return true;
    }
    // CAS failure reloaded `tat`; re-evaluate against the same `now` (the
    // error is nanoseconds and only ever makes admission slightly stricter).
  }
}

RateLimiter& RateLimiterRegistry::ForKey(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<RateLimiter>& slot = limiters_[key];
  if (slot == nullptr) {
    slot = std::make_unique<RateLimiter>(rate_per_sec_, burst_);
  }
  return *slot;
}

}  // namespace msql
