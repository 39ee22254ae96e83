#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced run's view of one SELECT: the statement taken through the
// engine's public layers one call at a time (Parser, Binder, PrepareSelect,
// QueryPlanned), each call wrapped in a span, and the per-layer figures the
// workloads aggregate.

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// Wall times of one decomposed statement, in microseconds.
struct LayerSample {
  double parse_us = 0;
  double bind_us = 0;
  double prepare_us = 0;
  double execute_us = 0;
};

// Runs `sql` as Parser::ParseSingleStatement, Binder::Bind against
// db->catalog() and Engine::PrepareSelect under `ctx`, recording one span
// per call as children of `parent` (a span of statement `stmt` in `log`,
// which may be null). The parse and bind results are discarded:
// PrepareSelect does its own, which is what a caller of the engine pays.
msql::Result<msql::PreparedPlanPtr> TracedPrepare(msql::Engine* db,
                                                  const std::string& sql,
                                                  const msql::QueryContext& ctx,
                                                  SpanLog* log, uint64_t stmt,
                                                  int parent,
                                                  LayerSample* out);

// TracedPrepare, then Engine::QueryPlanned of the plan in its own span.
msql::Result<msql::ResultSet> TracedSelect(msql::Engine* db,
                                           const std::string& sql,
                                           const msql::QueryContext& ctx,
                                           SpanLog* log, uint64_t stmt,
                                           int parent, LayerSample* out);

// A QueryContext for engine-level calls with `options` and no user.
msql::QueryContext ContextWith(const msql::EngineOptions& options);

// Layer figures of one statement class, gathered over a phase.
struct ClassLayers {
  Series parse_us, bind_us, prepare_us, execute_us, layered_us;
  Series query_us;  // the untraced call of the same class (dashboard: its
                    // engine time, see dashboard.cc)
  std::map<std::string, double> op_ms;  // EXPLAIN ANALYZE self time
  void Append(const ClassLayers& o) {
    parse_us.Append(o.parse_us);
    bind_us.Append(o.bind_us);
    prepare_us.Append(o.prepare_us);
    execute_us.Append(o.execute_us);
    layered_us.Append(o.layered_us);
    query_us.Append(o.query_us);
  }
  void Add(const LayerSample& s) {
    parse_us.Add(s.parse_us);
    bind_us.Add(s.bind_us);
    prepare_us.Add(s.prepare_us);
    execute_us.Add(s.execute_us);
    layered_us.Add(s.parse_us + s.bind_us + s.execute_us);
  }
  // Share of the untraced call not covered by parse + bind + execute.
  double UnattributedPct() const {
    const double q = query_us.p50();
    return q > 0 ? 100.0 * (q - layered_us.p50()) / q : 0;
  }
};

// Runs EXPLAIN ANALYZE of `sql` and returns its operators' self times.
std::map<std::string, double> ExplainOps(msql::Engine* db,
                                         const std::string& sql);

// Fills the per-layer metrics shared by every workload from per-class
// layer figures, engine counters and cache statistics. `measure_classes`
// and `plain_classes` pair up index by index (a measure statement and its
// plain-SQL twin). Execution counters come from the traced half. Plan-cache
// outcomes come from the untraced half: Engine::QueryPlanned reports every
// run of a prepared plan as a hit, so only the untraced calls, which probe
// the cache themselves, carry real hits and misses.
void ReportLayers(const std::map<std::string, ClassLayers>& classes,
                  const std::vector<std::string>& measure_classes,
                  const std::vector<std::string>& plain_classes,
                  const CounterSums& traced, const CounterSums& untraced,
                  Report* report);

// The names every traced run reports (README.md lists what each should
// move). Workloads set the ones their layers produce; the rest are 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
