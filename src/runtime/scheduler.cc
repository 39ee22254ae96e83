#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace msql {

namespace {

// Slot waits poll in short slices rather than blocking until notified: a
// waiter must observe Session::Cancel / Engine::CancelAll and its own
// deadline promptly even when no completion wakes it.
constexpr auto kWaitSlice = std::chrono::milliseconds(1);

int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(options),
      user_buckets_(options.per_user_rate_limit_qps,
                     options.per_user_rate_limit_burst),
      pool_(options.num_threads) {
  global_limiter_.Configure(options_.global_rate_limit_qps,
                            options_.global_rate_limit_burst);
}

QueryScheduler::~QueryScheduler() {
  Drain();
  pool_.Shutdown();
}

QueryScheduler::SchedMetrics QueryScheduler::MetricsFor(Engine& engine) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  if (metrics_engine_ != &engine) {
    obs::MetricsRegistry& reg = engine.metrics();
    cached_metrics_.rejections = reg.GetCounter(
        "msql_scheduler_admission_rejections_total",
        "Submissions shed by admission (caps or rate limit) after their "
        "bounded wait");
    cached_metrics_.rate_limited = reg.GetCounter(
        "msql_rate_limited_total",
        "Submissions shed because a rate-limit token was not available "
        "within the wait budget");
    cached_metrics_.retries = reg.GetCounter(
        "msql_retries_total",
        "Retry attempts made by SubmitWithRetry after retryable failures");
    cached_metrics_.queue_wait_ms = reg.GetHistogram(
        "msql_scheduler_queue_wait_ms",
        "Time admitted statements waited for a worker",
        obs::MetricsRegistry::LatencyBucketsMs());
    cached_metrics_.queue_depth = reg.GetHistogram(
        "msql_scheduler_queue_depth",
        "Admitted-but-unfinished statements observed at each admission",
        obs::MetricsRegistry::DepthBuckets());
    cached_metrics_.admission_wait_seconds = reg.GetHistogram(
        "msql_admission_wait_seconds",
        "Time submissions spent in bounded-wait admission (rate-limit delay "
        "plus slot wait), successful or shed",
        obs::MetricsRegistry::LatencyBucketsSeconds());
    metrics_engine_ = &engine;
  }
  return cached_metrics_;
}

Status QueryScheduler::ReserveRateTokens(const std::string& user,
                                         Clock::time_point now,
                                         Clock::time_point wait_deadline,
                                         const SchedMetrics& metrics,
                                         Clock::time_point* not_before) {
  const int64_t budget_us = MicrosBetween(now, wait_deadline);
  // Global bucket first (the broad gate), then the user's. Under overload
  // a global token burnt on a submission the user's bucket then sheds only
  // makes admission stricter, which is the safe direction.
  int64_t global_us = 0;
  int64_t user_us = 0;
  bool reserved = global_limiter_.Reserve(budget_us, &global_us);
  if (reserved && user_buckets_.enabled()) {
    reserved = user_buckets_.ForKey(user).Reserve(budget_us, &user_us);
  }
  if (!reserved) {
    metrics.rate_limited->Increment();
    metrics.rejections->Increment();
    return Status(ErrorCode::kResourceExhausted,
                  StrCat("admission rate limited (next token in ",
                         std::max(global_us, user_us),
                         "us, beyond the wait budget)"));
  }
  *not_before = now + std::chrono::microseconds(std::max(global_us, user_us));
  return Status::Ok();
}

Status QueryScheduler::WaitForSlots(
    const SessionPtr& session, const CancelTokenPtr& token,
    uint64_t generation, Clock::time_point wait_deadline, bool has_deadline,
    Clock::time_point deadline, const SchedMetrics& metrics) {
  const auto& generation_counter = session->engine().cancel_generation_;
  std::unique_lock<std::mutex> lock(admit_mu_);
  while (true) {
    if (token->cancelled()) {
      return Status(ErrorCode::kCancelled,
                    "submission cancelled while waiting for admission");
    }
    if (generation_counter->load(std::memory_order_relaxed) != generation) {
      return Status(ErrorCode::kCancelled,
                    "submission flushed by Engine::CancelAll while waiting "
                    "for admission");
    }
    const size_t pending = pending_.load(std::memory_order_acquire);
    const int inflight = session->inflight_.load(std::memory_order_acquire);
    if (pending < options_.max_pending &&
        inflight < options_.max_inflight_per_session) {
      pending_.fetch_add(1, std::memory_order_acq_rel);
      session->inflight_.fetch_add(1, std::memory_order_acq_rel);
      metrics.queue_depth->Observe(static_cast<double>(pending + 1));
      return Status::Ok();
    }
    const auto now = Clock::now();
    if (has_deadline && now >= deadline) {
      metrics.rejections->Increment();
      return Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded while waiting for admission");
    }
    if (now >= wait_deadline) {
      metrics.rejections->Increment();
      if (pending >= options_.max_pending) {
        return Status(ErrorCode::kResourceExhausted,
                      StrCat("scheduler admission queue full (max_pending=",
                             options_.max_pending, ")"));
      }
      return Status(
          ErrorCode::kResourceExhausted,
          StrCat("session ", session->id(), " at its in-flight limit (",
                 options_.max_inflight_per_session, ")"));
    }
    admit_cv_.wait_for(lock, kWaitSlice);
  }
}

Result<QueryScheduler::QueryFuture> QueryScheduler::Submit(
    const SessionPtr& session, std::string sql) {
  auto promise = std::make_shared<std::promise<Result<ResultSet>>>();
  QueryFuture future = promise->get_future();
  MSQL_RETURN_IF_ERROR(Schedule(
      session, {},
      [engine = &session->engine(), sql = std::move(sql),
       promise](Result<QueryContext> ctx) {
        promise->set_value(ctx.ok() ? engine->QueryWith(sql, ctx.value())
                                    : Result<ResultSet>(ctx.status()));
      }));
  return future;
}

Result<QueryScheduler::QueryFuture> QueryScheduler::SubmitPrepared(
    const SessionPtr& session, PreparedPlanPtr prepared, Row params) {
  auto promise = std::make_shared<std::promise<Result<ResultSet>>>();
  QueryFuture future = promise->get_future();
  MSQL_RETURN_IF_ERROR(Schedule(
      session, {},
      [engine = &session->engine(), prepared = std::move(prepared),
       params = std::move(params), promise](Result<QueryContext> ctx) {
        promise->set_value(
            ctx.ok() ? engine->QueryPlanned(prepared, params, ctx.value())
                     : Result<ResultSet>(ctx.status()));
      }));
  return future;
}

Status QueryScheduler::Schedule(const SessionPtr& session, ScheduledRun run,
                                Task task) {
  const SchedMetrics metrics = MetricsFor(session->engine());
  MSQL_FAULT_POINT("runtime.admission_wait");

  const auto submit_time = Clock::now();
  // The query's absolute deadline is stamped now, before any waiting, so
  // admission and queue time charge against the statement's own budget.
  const int64_t timeout_ms =
      run.timeout_ms >= 0 ? run.timeout_ms : session->options_.timeout_ms;
  const bool has_deadline = timeout_ms > 0;
  const auto deadline = submit_time + std::chrono::milliseconds(timeout_ms);
  auto wait_deadline = submit_time;  // max_admission_wait_ms == 0: no wait
  if (options_.max_admission_wait_ms > 0) {
    wait_deadline =
        submit_time + std::chrono::milliseconds(options_.max_admission_wait_ms);
  }
  if (has_deadline && deadline < wait_deadline) wait_deadline = deadline;

  // Register the cancel token before waiting: Session::Cancel() and
  // Engine::CancelAll() must reach submissions still in admission.
  CancelTokenPtr token = session->AcquireToken();
  const uint64_t generation =
      session->engine().cancel_generation_->load(std::memory_order_relaxed);

  Clock::time_point not_before;
  Status admitted = ReserveRateTokens(session->user(), submit_time,
                                      wait_deadline, metrics, &not_before);
  if (admitted.ok()) {
    admitted = WaitForSlots(session, token, generation, wait_deadline,
                            has_deadline, deadline, metrics);
  }
  const auto admitted_at = Clock::now();
  if (!admitted.ok()) {
    metrics.admission_wait_seconds->Observe(
        static_cast<double>(MicrosBetween(submit_time, admitted_at)) / 1e6);
    session->ReleaseToken(token);
    return admitted;
  }
  // A reserved token delays the start; a slot wait delays the enqueue.
  // Admission ends at whichever comes later.
  const auto due = std::max(not_before, admitted_at);
  const int64_t admission_wait_us = MicrosBetween(submit_time, due);
  metrics.admission_wait_seconds->Observe(
      static_cast<double>(admission_wait_us) / 1e6);

  QueryContext ctx = session->MakeContext(token);
  // The deadline stamped above carries the statement's whole budget.
  ctx.options.timeout_ms = 0;
  ctx.options.enable_tracing = ctx.options.enable_tracing || run.trace;
  if (!run.trace_id.empty()) ctx.trace_id = std::move(run.trace_id);
  ctx.admission_wait_us = admission_wait_us;
  ctx.has_deadline = has_deadline;
  ctx.deadline = deadline;
  ctx.cancel_generation = generation;

  auto generation_counter = session->engine().cancel_generation_;
  const bool submitted = pool_.Submit(
      [this, session, token, ctx = std::move(ctx), task = std::move(task),
       due, generation, generation_counter,
       queue_wait_ms = metrics.queue_wait_ms]() mutable {
        const auto started = Clock::now();
        // Shutdown starts delayed tasks early; their queue wait is zero.
        const int64_t wait_us =
            std::max<int64_t>(0, MicrosBetween(due, started));
        queue_wait_ms->Observe(static_cast<double>(wait_us) / 1000.0);
        // Queued-but-unstarted flush: a token fired or a CancelAll issued
        // while this statement sat in the worker queue cancels it without
        // executing a single operator.
        if (token->cancelled() ||
            generation_counter->load(std::memory_order_relaxed) !=
                generation) {
          task(Status(ErrorCode::kCancelled,
                      "query cancelled while queued (never started)"));
        } else if (ctx.has_deadline && started >= ctx.deadline) {
          task(Status(ErrorCode::kDeadlineExceeded,
                      "query deadline exceeded while queued"));
        } else {
          ctx.queue_wait_us = wait_us;
          task(std::move(ctx));
        }
        session->ReleaseToken(token);
        {
          std::lock_guard<std::mutex> lock(admit_mu_);
          session->inflight_.fetch_sub(1, std::memory_order_acq_rel);
          pending_.fetch_sub(1, std::memory_order_acq_rel);
        }
        admit_cv_.notify_all();
        drain_cv_.notify_all();
      },
      due);
  if (!submitted) {
    session->ReleaseToken(token);
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      session->inflight_.fetch_sub(1, std::memory_order_acq_rel);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    return Status(ErrorCode::kCancelled, "scheduler is shut down");
  }
  return Status::Ok();
}

Result<ResultSet> QueryScheduler::SubmitWithRetry(const SessionPtr& session,
                                                  std::string sql,
                                                  const RetryPolicy& policy) {
  const SchedMetrics metrics = MetricsFor(session->engine());
  const int attempts = std::max(1, policy.max_attempts);
  Status last = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    Result<QueryFuture> submitted = Submit(session, sql);
    if (submitted.ok()) {
      Result<ResultSet> result = submitted.value().get();
      if (result.ok()) return result;
      last = result.status();
    } else {
      last = submitted.status();
    }
    if (!last.IsRetryable() || attempt + 1 >= attempts) return last;
    MSQL_FAULT_POINT("runtime.retry_backoff");
    metrics.retries->Increment();
    const int64_t backoff_us = RetryBackoffUs(policy, attempt);
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(admit_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace msql
