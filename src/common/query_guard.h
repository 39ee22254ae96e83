#ifndef MSQL_COMMON_QUERY_GUARD_H_
#define MSQL_COMMON_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace msql {

// Cooperative cancellation handle shared between a query and the code that
// wants to stop it. Cancel() may be called from any thread; the running
// query observes it at its next guard checkpoint and unwinds with a clean
// kCancelled status.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

// Per-query resource governor: wall-clock deadline, memory budget, output
// row budget and cooperative cancellation. One guard lives inside each
// query's ExecState; every row loop in the executor, evaluator and measure
// engine calls Check(), and every relation / result-set materialization
// charges its rows.
//
// Check() is designed for hot loops: the unarmed path is a single branch,
// and the armed path reads the clock / cancellation atomics only once per
// kCheckInterval calls. Budget charging compares two integers per call, so
// budget trips are deterministic (independent of timing).
class QueryGuard {
 public:
  // Check() calls between deadline / cancellation polls. Row loops hit
  // Check() every iteration, so cancellation latency is a few hundred rows.
  static constexpr int32_t kCheckInterval = 256;

  // Flat per-value estimate used by the memory accountant. Values are a
  // tagged union (kind + int64 + double + inline std::string); the estimate
  // deliberately ignores string heap payloads to stay O(1) per row.
  static constexpr uint64_t kApproxValueBytes = sizeof(uint64_t) * 8;

  QueryGuard() = default;

  // Activates the guard. Zero limits mean unlimited; the guard still polls
  // `token` (may be null) and `cancel_generation` (may be null) so that
  // Engine::CancelAll and per-query tokens work without any limits set.
  void Arm(int64_t timeout_ms, uint64_t max_memory_bytes,
           uint64_t max_result_rows, CancelTokenPtr token,
           std::shared_ptr<std::atomic<uint64_t>> cancel_generation);

  // Deadline propagation (docs/ROBUSTNESS.md): lowers the guard's absolute
  // deadline to `deadline` if that is earlier than (or replaces a missing)
  // per-statement timeout. The scheduler stamps a query's deadline at
  // submission, so queue wait, measure expansion, grouped builds and
  // execution all charge against one budget instead of restarting the
  // clock at execution start. Call after Arm().
  void TightenDeadline(std::chrono::steady_clock::time_point deadline) {
    if (!has_deadline_ || deadline < deadline_) {
      has_deadline_ = true;
      deadline_ = deadline;
      propagated_deadline_ = true;
    }
  }

  // Scopes Engine::CancelAll to the generation `snapshot`, taken when the
  // statement was submitted, instead of the one current at Arm(): a
  // CancelAll issued between a scheduled statement's start and its guard
  // arming still cancels it. Call after Arm().
  void PinCancelGeneration(uint64_t snapshot) {
    generation_snapshot_ = snapshot;
  }

  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  // Cheap cooperative checkpoint for row loops: polls cancellation and the
  // deadline every kCheckInterval calls.
  Status Check() {
    if (!armed_ || --ticks_ > 0) return Status::Ok();
    return CheckSlow();
  }

  // Charges `rows` materialized rows of `row_width` values against the row
  // and memory budgets. Called wherever a Relation or ResultSet gains rows.
  Status ChargeRows(uint64_t rows, size_t row_width) {
    if (!armed_) return Status::Ok();
    rows_charged_ += rows;
    bytes_charged_ += rows * (row_width * kApproxValueBytes + kRowOverhead);
    if ((max_rows_ != 0 && rows_charged_ > max_rows_) ||
        (max_bytes_ != 0 && bytes_charged_ > max_bytes_)) {
      return BudgetExceeded();
    }
    return Status::Ok();
  }

  // Charges raw bytes against the memory budget (cross-query cache fills,
  // out-of-row allocations).
  Status ChargeBytes(uint64_t bytes) {
    if (!armed_) return Status::Ok();
    bytes_charged_ += bytes;
    if (max_bytes_ != 0 && bytes_charged_ > max_bytes_) {
      return BudgetExceeded();
    }
    return Status::Ok();
  }

  // Worker-side guard for parallel measure evaluation: shares this guard's
  // deadline, limits and cancellation handles (token and CancelAll
  // generation, both already thread-safe) but starts with zero charges.
  // The guard itself is not thread-safe, so each worker thread owns its
  // fork; after the join, fold every fork back with MergeWorker.
  QueryGuard ForkWorker() const {
    QueryGuard g(*this);
    g.ticks_ = 1;  // workers poll cancellation on their first Check()
    g.rows_charged_ = 0;
    g.bytes_charged_ = 0;
    return g;
  }

  // Folds a joined worker fork's charges into this guard. Budgets are
  // enforced per worker during the parallel section (each fork carries the
  // full limits), so the merged total is where cross-worker overshoot
  // surfaces.
  Status MergeWorker(const QueryGuard& worker) {
    if (!armed_) return Status::Ok();
    rows_charged_ += worker.rows_charged_;
    bytes_charged_ += worker.bytes_charged_;
    if ((max_rows_ != 0 && rows_charged_ > max_rows_) ||
        (max_bytes_ != 0 && bytes_charged_ > max_bytes_)) {
      return BudgetExceeded();
    }
    return Status::Ok();
  }

  // Totals since Arm(); exposed for tests and diagnostics.
  uint64_t rows_charged() const { return rows_charged_; }
  uint64_t bytes_charged() const { return bytes_charged_; }

 private:
  static constexpr uint64_t kRowOverhead = sizeof(uint64_t) * 3;

  Status CheckSlow();
  Status BudgetExceeded() const;

  bool armed_ = false;
  int32_t ticks_ = 1;
  bool has_deadline_ = false;
  bool propagated_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  int64_t timeout_ms_ = 0;
  uint64_t max_rows_ = 0;
  uint64_t max_bytes_ = 0;
  uint64_t rows_charged_ = 0;
  uint64_t bytes_charged_ = 0;
  CancelTokenPtr token_;
  std::shared_ptr<std::atomic<uint64_t>> cancel_generation_;
  uint64_t generation_snapshot_ = 0;
};

}  // namespace msql

#endif  // MSQL_COMMON_QUERY_GUARD_H_
