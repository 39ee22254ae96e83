#ifndef MSQL_EXEC_EXEC_STATE_H_
#define MSQL_EXEC_EXEC_STATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/query_guard.h"
#include "common/value.h"
#include "obs/op_profile.h"

namespace msql {

class CircuitBreaker;      // runtime/circuit_breaker.h
class SharedMeasureCache;  // runtime/shared_cache.h
class ThreadPool;          // runtime/thread_pool.h
struct GroupedIndex;       // measure/grouped.h
struct LogicalPlan;        // plan/plan.h

// How measure evaluations are executed. kNaive re-scans the measure source
// for every evaluation; kMemoized caches by evaluation-context signature —
// the paper's "localized self-join" strategy (section 5.1), where per-group
// results are probed from an in-memory cache instead of recomputed.
// kGrouped (the default) additionally partitions the source once per
// context *shape* with a dimension-tuple hash index, so a batch of G
// same-shaped contexts (what GROUP BY produces) costs O(R + G) instead of
// O(G x R); see docs/PERFORMANCE.md.
enum class MeasureStrategy { kNaive, kMemoized, kGrouped };

// How operators execute. kVectorized (the default) runs the hot operators
// (scan, project, filter, aggregation, measure accumulation) over typed
// column batches (exec/column_vector.h) with per-operator fallback to the
// row path when an expression has no kernel; kRow is the row-at-a-time
// interpreter, kept as the correctness baseline (the msqlcheck oracle runs
// every strategy under both modes). Fallbacks surface in EXPLAIN ANALYZE
// (exec=vectorized|row) and the msql_exec_row_fallbacks_total metric.
enum class ExecMode { kRow, kVectorized };

struct EngineOptions {
  MeasureStrategy measure_strategy = MeasureStrategy::kGrouped;
  ExecMode exec_mode = ExecMode::kVectorized;
  // Paper section 6.4's inline rewrite, as a runtime fast path: a context
  // consisting solely of row-id terms is evaluated directly over those rows
  // (no source scan), and VISIBLE-only call sites skip the redundant
  // group-key dimension terms. Off = ablation baseline.
  bool inline_visible_contexts = true;
  // Cache correlated scalar subquery results by their free-variable values
  // (the WinMagic-adjacent optimization discussed in section 5.1).
  bool memoize_subqueries = true;
  // Workers for morsel-parallel grouped index builds and probe batches.
  // 0 = one worker per hardware thread (capped by the engine's measure
  // pool); 1 = single-threaded.
  int measure_parallelism = 0;
  // Guard rails (see docs/ROBUSTNESS.md). Zero means unlimited. The depth
  // limit drives every recursion guard: plan execution, measure evaluation
  // and view expansion all trip kResourceExhausted at this depth.
  int max_recursion_depth = 64;
  // Wall-clock budget per statement; exceeding it returns
  // kDeadlineExceeded. Scheduler-submitted statements start this budget at
  // submission (docs/CONCURRENCY.md), so admission and queue wait count
  // against it.
  int64_t timeout_ms = 0;
  // Circuit breakers guarding the degradable fault points (grouped-index
  // builds, shared-cache fills); see runtime/circuit_breaker.h. Read at
  // engine construction. A breaker opens when, of the last
  // `breaker_window` outcomes (at least `breaker_min_samples` of them),
  // the failing fraction reaches `breaker_failure_ratio`; it half-opens
  // after `breaker_open_cooldown_ms` and closes again after
  // `breaker_half_open_probes` consecutive successful probes.
  int breaker_window = 16;
  double breaker_failure_ratio = 0.5;
  int breaker_min_samples = 8;
  int64_t breaker_open_cooldown_ms = 100;
  int breaker_half_open_probes = 2;
  // Approximate bytes of materialized relations; exceeding returns
  // kResourceExhausted.
  uint64_t max_memory_bytes = 0;
  // Total rows materialized across all operators of a statement (a proxy
  // for total work and peak memory); exceeding returns kResourceExhausted.
  uint64_t max_result_rows = 0;
  // Prepared-statement plan cache (docs/NETWORKING.md): when enabled,
  // Engine::Query consults a fingerprint-keyed cache of bound,
  // measure-expanded plans before parsing, and Engine::PrepareSelect
  // publishes into it. Invalidated by catalog generation; LRU-bounded by
  // the plan_cache_* limits below.
  bool enable_plan_cache = false;
  size_t plan_cache_max_entries = 256;
  uint64_t plan_cache_max_bytes = 64ull << 20;
  // Observability (docs/OBSERVABILITY.md). Tracing is off by default and
  // zero-cost when disabled: the traced path is only entered when this is
  // set, so the hot path pays one branch.
  bool enable_tracing = false;
  // Traces retained for Engine::RecentTraces() (engine-level: the ring is
  // sized when the engine is constructed).
  size_t trace_ring_capacity = 64;
  // Queries with total wall time >= this threshold are appended to the
  // slow-query log as JSON lines (0 logs every traced query). Negative
  // disables the sink. Engine-level: read at engine construction.
  int64_t slow_query_log_ms = -1;
  // Slow-query log destination; empty means stderr.
  std::string slow_query_log_path;
  // Exposes the virtual `msql_system.*` introspection tables (connections,
  // queries, metrics — docs/OBSERVABILITY.md) to the binder. Off by default
  // so embedded engines pay nothing; msqld turns it on.
  bool enable_system_tables = false;
};

// Per-query mutable execution state: option snapshot, caches, counters. The
// counters feed the benchmark harness (cache hit rates, source scans).
struct ExecState {
  EngineOptions options;

  // Resource governor for this query; armed by Engine::RunSelect. Row
  // loops call guard.Check(), materialization points call
  // guard.ChargeRows(). Parallel measure workers run against forks of this
  // guard (QueryGuard::ForkWorker), merged after the join.
  QueryGuard guard;

  // Set when the bound plan scans an msql_system table: such plans embed a
  // data snapshot the catalog generation does not version, so the
  // statement must stay out of the cross-query shared cache (the engine
  // also suppresses its plan-cache publish).
  bool forbid_shared_cache = false;

  std::unordered_map<std::string, Value> measure_cache;
  std::unordered_map<std::string, Value> subquery_cache;

  // Per-query cache of grouped-strategy dimension indexes, keyed by
  // (source identity, context-shape signature); see measure/grouped.h.
  std::unordered_map<std::string, std::shared_ptr<const GroupedIndex>>
      grouped_index_cache;

  // Returns the engine's measure worker pool, creating it on first use
  // (null/unset => single-threaded evaluation). A provider rather than a
  // raw pool so the threads only ever exist once a query actually has a
  // parallel-eligible grouped build. Worker-side ExecState forks leave it
  // unset: workers must never re-enter the pool they run on.
  std::function<ThreadPool*()> measure_pool_provider;

  // Engine-wide cross-query result cache (may be null: uncached engine or
  // naive strategy). Consulted by the measure evaluator and the subquery
  // memoizer on a local-cache miss; fills are tagged with
  // `catalog_generation`, the catalog data version snapshotted when this
  // query started, so entries computed against concurrently mutated data
  // are rejected by the cache.
  SharedMeasureCache* shared_cache = nullptr;
  uint64_t catalog_generation = 0;

  // Engine-owned circuit breakers for the degradable fault points (null =
  // unguarded, e.g. worker forks and unit tests building ExecState by
  // hand). Consulted before grouped-index builds / shared-cache fills;
  // while open the optimization is skipped and breaker_short_circuits
  // counts the skips (surfaced by EXPLAIN ANALYZE as breaker=open).
  CircuitBreaker* grouped_build_breaker = nullptr;
  CircuitBreaker* cache_fill_breaker = nullptr;

  // Per-query memo of structural plan fingerprints (cross-query cache key
  // components); keyed by node identity, which is stable within one query.
  std::unordered_map<const LogicalPlan*, std::string> plan_fingerprints;

  // Per-operator runtime profile (EXPLAIN ANALYZE). Null — the default —
  // keeps the executor's profiling hook to a single branch per operator.
  obs::PlanProfile* profile = nullptr;

  int depth = 0;

  // Positional parameter values for prepared-statement execution (null =
  // no parameters). `param_sig` is the rendered value tuple; non-empty, it
  // is appended to every *cross-query* shared-cache key so results
  // computed under one parameter binding are never replayed under another
  // (structural fingerprints render `?` placeholders identically).
  const Row* params = nullptr;
  std::string param_sig;

  // How this statement interacted with the engine's prepared-plan cache
  // (0 = not consulted, 1 = miss, 2 = hit); copied into QueryStats.
  int plan_cache_outcome = 0;

  // Instrumentation.
  uint64_t measure_evals = 0;        // measure evaluations requested
  uint64_t measure_cache_hits = 0;
  uint64_t measure_source_scans = 0; // full passes over a measure source
  uint64_t measure_inline_evals = 0; // row-id-only fast path (section 6.4)
  uint64_t measure_grouped_builds = 0;     // dimension-index builds
  uint64_t measure_grouped_probes = 0;     // O(1) per-context index probes
  uint64_t measure_grouped_fallbacks = 0;  // degraded builds (fault inject)
  uint64_t measure_parallel_tasks = 0;     // morsel-parallel worker tasks
  uint64_t subquery_execs = 0;
  uint64_t subquery_cache_hits = 0;
  uint64_t shared_cache_hits = 0;    // cross-query cache hits (this query)
  uint64_t shared_cache_misses = 0;
  uint64_t breaker_short_circuits = 0;  // ops skipped by an open breaker
  uint64_t exec_vectorized_batches = 0;  // column batches run through kernels
  uint64_t exec_row_fallbacks = 0;  // vectorized ops degraded to the row path
};

}  // namespace msql

#endif  // MSQL_EXEC_EXEC_STATE_H_
