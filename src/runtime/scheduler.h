#ifndef MSQL_RUNTIME_SCHEDULER_H_
#define MSQL_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "engine/engine.h"
#include "runtime/rate_limiter.h"
#include "runtime/retry.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"

namespace msql {

struct SchedulerOptions {
  // Worker threads executing admitted queries.
  int num_threads = 4;
  // Admitted-but-unfinished statement cap across all sessions; submissions
  // beyond it wait (bounded) for a slot, then are shed with
  // kResourceExhausted (load shedding, not unbounded queueing). 0 is a
  // zero-capacity queue that sheds every submission — tests use it to
  // force the rejection path deterministically.
  size_t max_pending = 256;
  // Per-session concurrent statement cap.
  int max_inflight_per_session = 8;
  // Bounded-wait admission (docs/CONCURRENCY.md): how far ahead a
  // submission may reserve rate-limit tokens, and how long it may wait for
  // a pending slot, before being shed. The wait never exceeds the query's
  // own deadline (measured from submission). 0 restores instant-reject
  // admission — the ablation baseline bench_overload compares against.
  int64_t max_admission_wait_ms = 100;
  // Global admission token bucket across all sessions, applied before the
  // per-user bucket. 0 = unlimited.
  double global_rate_limit_qps = 0.0;
  int64_t global_rate_limit_burst = 16;
  // Admission token bucket per user (Session::user()), shared by all of
  // that user's sessions and msqld connections, so one flooding user
  // exhausts only its own bucket. 0 = unlimited.
  double per_user_rate_limit_qps = 0.0;
  int64_t per_user_rate_limit_burst = 16;
};

// Per-statement settings that travel with one submission instead of being
// written into the session's options; msqld fills them from the wire frame.
struct ScheduledRun {
  // Statement budget, charged from submission. < 0 uses the session's
  // options().timeout_ms; 0 means no deadline.
  int64_t timeout_ms = -1;
  // Traces the statement even when the session does not enable tracing.
  bool trace = false;
  // Client correlation id copied onto the statement's trace.
  std::string trace_id;
};

// Admission-controlled concurrent query execution: a fixed worker pool fed
// by Schedule() — the one admission path for embedded submissions and
// msqld's wire statements alike. Admission runs a small state machine per
// submission (docs/CONCURRENCY.md): rate-limit gate (global bucket, then
// the user's) -> bounded wait for a pending + per-session slot -> enqueue.
// The rate gate never sleeps: a token that frees up within the wait budget
// is reserved ahead, and the statement is queued to start when it falls
// due. A submission that cannot clear a stage within its wait budget — the
// smaller of max_admission_wait_ms and the query's own deadline — is shed
// with kResourceExhausted (or kDeadlineExceeded when its deadline expired
// while waiting). Cancellation composes at every stage: Session::Cancel()
// and Engine::CancelAll() reach waiting and queued-but-unstarted
// submissions, which unwind with kCancelled without executing (a delayed
// one at its due time, at most max_admission_wait_ms later), as well as
// admitted queries through the per-query tokens / engine cancel
// generation. When the statement has a timeout, the absolute deadline is
// stamped at submission and propagated into the query guard, so admission,
// queue wait and execution charge one budget.
class QueryScheduler {
 public:
  using QueryFuture = std::future<Result<ResultSet>>;
  // A statement body. Runs on a worker thread once the statement is due,
  // with the session's query context (its cancel token, deadline, waits
  // and the ScheduledRun settings filled in), or with the status that
  // dropped the statement before it started: kCancelled or
  // kDeadlineExceeded while queued.
  using Task = std::function<void(Result<QueryContext>)>;

  explicit QueryScheduler(SchedulerOptions options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Admits one statement on `session`'s behalf. On admission returns OK
  // and `task` runs exactly once on a worker; on shed returns
  // kResourceExhausted / kDeadlineExceeded (kCancelled when cancelled
  // during the slot wait) and `task` never runs. Waits only when every
  // pending or per-session slot is taken.
  Status Schedule(const SessionPtr& session, ScheduledRun run, Task task);

  // Admits `sql` for execution on `session`'s behalf (Schedule with a
  // future). On admission the returned future eventually holds the
  // statement's result (possibly an error status); on shed the Result
  // carries the Schedule status.
  Result<QueryFuture> Submit(const SessionPtr& session, std::string sql);

  // As Submit, but for an already-prepared plan with bound parameter
  // values (Engine::QueryPlanned under full admission control).
  Result<QueryFuture> SubmitPrepared(const SessionPtr& session,
                                     PreparedPlanPtr prepared, Row params);

  // Submit + wait, retrying retryable failures (Status::IsRetryable —
  // admission sheds and other transient pressure) with capped exponential
  // backoff and deterministic seeded jitter (runtime/retry.h). Each
  // attempt gets a fresh deadline from the session's timeout_ms. Returns
  // the first success or the last attempt's failure.
  Result<ResultSet> SubmitWithRetry(const SessionPtr& session,
                                    std::string sql,
                                    const RetryPolicy& policy);

  // Blocks until every admitted statement has finished.
  void Drain();

  size_t pending() const { return pending_.load(std::memory_order_acquire); }
  const SchedulerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  // Scheduler metrics live in the engine's registry (one scheduler may in
  // principle serve sessions of several engines; instruments are re-resolved
  // when the engine changes, cached otherwise).
  struct SchedMetrics {
    obs::Counter* rejections = nullptr;
    obs::Counter* rate_limited = nullptr;
    obs::Counter* retries = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Histogram* admission_wait_seconds = nullptr;
  };
  SchedMetrics MetricsFor(Engine& engine);

  // Rate stage: reserves a global and a per-user token at most up to
  // `wait_deadline` ahead and sets *not_before to when both fall due.
  Status ReserveRateTokens(const std::string& user, Clock::time_point now,
                           Clock::time_point wait_deadline,
                           const SchedMetrics& metrics,
                           Clock::time_point* not_before);
  // Slot stage: polls `token` and the engine cancel generation (snapshot
  // `generation`) so cancellation is honored while waiting, and gives up
  // at `wait_deadline`. `deadline` (valid when has_deadline) distinguishes
  // a shed (kResourceExhausted) from an expired query deadline
  // (kDeadlineExceeded).
  Status WaitForSlots(const SessionPtr& session, const CancelTokenPtr& token,
                      uint64_t generation, Clock::time_point wait_deadline,
                      bool has_deadline, Clock::time_point deadline,
                      const SchedMetrics& metrics);

  SchedulerOptions options_;
  RateLimiter global_limiter_;
  RateLimiterRegistry user_buckets_;
  std::atomic<size_t> pending_{0};

  // One mutex covers slot reservation, completion accounting and Drain();
  // slot waiters poll in ~1ms slices so cancellation and deadlines are
  // honored even if a notify is missed.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::condition_variable drain_cv_;

  std::mutex metrics_mu_;
  Engine* metrics_engine_ = nullptr;
  SchedMetrics cached_metrics_;

  ThreadPool pool_;  // last member: workers stop before the rest dies
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SCHEDULER_H_
