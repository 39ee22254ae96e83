#ifndef MSQL_COMMON_QUERY_STATS_H_
#define MSQL_COMMON_QUERY_STATS_H_

#include <cstdint>

namespace msql {

// Immutable per-query execution statistics, snapshotted from the query's
// ExecState when it finishes. Returned on the result path
// (ResultSet::stats()) and attached to the query's trace: each concurrent
// query gets its own copy instead of clobbering shared mutable state.
struct QueryStats {
  // Measure evaluation (measure/cse.cc, measure/grouped.cc).
  uint64_t measure_evals = 0;        // evaluations requested
  uint64_t measure_cache_hits = 0;   // per-query memo hits
  uint64_t measure_source_scans = 0; // full passes over a measure source
  uint64_t measure_inline_evals = 0; // row-id-only fast-path evaluations
  uint64_t measure_grouped_builds = 0;     // dimension-index builds
  uint64_t measure_grouped_probes = 0;     // O(1) grouped-index probes
  uint64_t measure_grouped_fallbacks = 0;  // degraded builds (fault inject)
  uint64_t measure_parallel_tasks = 0;     // morsel-parallel worker tasks

  // Correlated scalar subqueries (exec/executor.cc).
  uint64_t subquery_execs = 0;
  uint64_t subquery_cache_hits = 0;

  // Cross-query SharedMeasureCache traffic attributable to this query.
  uint64_t shared_cache_hits = 0;
  uint64_t shared_cache_misses = 0;

  // Vectorized execution (exec/vector_eval.cc and friends): 1024-row
  // column batches processed by batch kernels, and operator invocations
  // that fell back to row-at-a-time (no kernel, or fault-injected).
  uint64_t exec_vectorized_batches = 0;
  uint64_t exec_row_fallbacks = 0;

  // Degradable operations skipped because a circuit breaker was open
  // (runtime/circuit_breaker.h); EXPLAIN ANALYZE surfaces these as a
  // "Breakers:" line.
  uint64_t breaker_short_circuits = 0;

  // Resource-governor charges (common/query_guard.h).
  uint64_t rows_charged = 0;
  uint64_t bytes_charged = 0;

  // Prepared-plan cache interaction of this statement (EXPLAIN ANALYZE's
  // "PlanCache:" line): kOff when the cache was not consulted, kMiss when
  // the statement was bound fresh (and published), kHit when a cached
  // bound plan skipped parse/bind/measure-expand.
  enum class PlanCacheOutcome { kOff = 0, kMiss = 1, kHit = 2 };
  PlanCacheOutcome plan_cache = PlanCacheOutcome::kOff;

  // Recursion depth at completion; 0 after a clean unwind.
  int depth = 0;

  // Wall time of the whole select pipeline (bind through render).
  int64_t total_us = 0;

  // Per-phase wall times, filled from the query's trace spans when tracing
  // was enabled for the statement (zero otherwise — the disabled path never
  // measures them). Names match the span names in docs/OBSERVABILITY.md;
  // these feed the wire response footer and msql_system.queries. bind_us
  // excludes measure_expand_us (which runs inside bind) so phases add up.
  int64_t admission_wait_us = 0;
  int64_t queue_wait_us = 0;
  int64_t parse_us = 0;
  int64_t bind_us = 0;
  int64_t measure_expand_us = 0;
  int64_t plan_us = 0;
  int64_t execute_us = 0;
  int64_t render_us = 0;
};

}  // namespace msql

#endif  // MSQL_COMMON_QUERY_STATS_H_
