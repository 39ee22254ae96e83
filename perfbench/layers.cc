#include "layers.h"

#include "binder/binder.h"
#include "parser/parser.h"

namespace perfbench {

msql::QueryContext ContextWith(const msql::EngineOptions& options) {
  msql::QueryContext ctx;
  ctx.options = options;
  return ctx;
}

msql::Result<msql::PreparedPlanPtr> TracedPrepare(msql::Engine* db,
                                                  const std::string& sql,
                                                  const msql::QueryContext& ctx,
                                                  SpanLog* log, uint64_t stmt,
                                                  int parent,
                                                  LayerSample* out) {
  auto t0 = Clock::now();
  msql::Result<msql::StmtPtr> parsed(msql::Status::Ok());
  {
    ScopedSpan span(log, stmt, "parser.parse", parent);
    parsed = msql::Parser(sql).ParseSingleStatement();
  }
  auto t1 = Clock::now();
  out->parse_us = UsBetween(t0, t1);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value()->select == nullptr) {
    return msql::Status(msql::ErrorCode::kInvalidArgument, "not a SELECT");
  }
  {
    ScopedSpan span(log, stmt, "binder.bind", parent);
    msql::Binder binder(&db->catalog(), ctx.user,
                        ctx.options.max_recursion_depth);
    auto bound = binder.Bind(*parsed.value()->select);
    if (!bound.ok()) return bound.status();
  }
  auto t2 = Clock::now();
  out->bind_us = UsBetween(t1, t2);
  msql::Result<msql::PreparedPlanPtr> prepared(msql::Status::Ok());
  {
    ScopedSpan span(log, stmt, "engine.prepare", parent);
    prepared = db->PrepareSelect(sql, {}, ctx);
  }
  out->prepare_us = UsBetween(t2, Clock::now());
  return prepared;
}

msql::Result<msql::ResultSet> TracedSelect(msql::Engine* db,
                                           const std::string& sql,
                                           const msql::QueryContext& ctx,
                                           SpanLog* log, uint64_t stmt,
                                           int parent, LayerSample* out) {
  auto prepared = TracedPrepare(db, sql, ctx, log, stmt, parent, out);
  if (!prepared.ok()) return prepared.status();
  const auto t0 = Clock::now();
  msql::Result<msql::ResultSet> result(msql::Status::Ok());
  {
    ScopedSpan span(log, stmt, "engine.execute", parent);
    result = db->QueryPlanned(prepared.value(), {}, ctx);
  }
  out->execute_us = UsBetween(t0, Clock::now());
  return result;
}

std::map<std::string, double> ExplainOps(msql::Engine* db,
                                         const std::string& sql) {
  auto rs = db->Query("EXPLAIN ANALYZE " + sql);
  Require(rs.status(), "EXPLAIN ANALYZE");
  return ExplainSelfMs(PlanText(rs.value()));
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"parser.parse_us", "us"},
      {"binder.bind_us", "us"},
      {"engine.prepare_us", "us"},
      {"engine.execute_us", "us"},
      {"engine.unattributed_pct", "%"},
      {"measure.cost_vs_plain", "ratio"},
      {"measure.plain_execute_us", "us"},
      {"measure.grouped_builds_per_query", "count"},
      {"measure.grouped_probes_per_query", "count"},
      {"measure.source_scans_per_query", "count"},
      {"measure.inline_evals_per_query", "count"},
      {"measure.parallel_tasks_per_query", "count"},
      {"measure.memo_hit_ratio", "ratio"},
      {"measure.refill_ms", "ms"},
      {"exec.op_ms.Scan", "ms"},
      {"exec.op_ms.Project", "ms"},
      {"exec.op_ms.Filter", "ms"},
      {"exec.op_ms.Aggregate", "ms"},
      {"exec.op_ms.Join", "ms"},
      {"exec.op_ms.Sort", "ms"},
      {"exec.vectorized_batches_per_query", "count"},
      {"exec.row_fallbacks_per_query", "count"},
      {"exec.guard_mb_per_query", "MB"},
      {"runtime.plan_cache_hit_ratio", "ratio"},
      {"runtime.shared_cache_hit_ratio", "ratio"},
      {"runtime.shared_cache_evictions", "count"},
      {"runtime.queue_us", "us"},
      {"catalog.insert_ms", "ms"},
      {"catalog.load_rows_per_s", "1/s"},
      {"net.server_us", "us"},
      {"net.overhead_us", "us"},
      {"loadgen.lag_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void ReportLayers(const std::map<std::string, ClassLayers>& classes,
                  const std::vector<std::string>& measure_classes,
                  const std::vector<std::string>& plain_classes,
                  const CounterSums& c, const CounterSums& untraced,
                  Report* report) {
  ClassLayers all, measure, plain;
  std::map<std::string, double> op_sum;
  std::vector<double> unattributed;
  for (const auto& [name, cl] : classes) {
    all.parse_us.Append(cl.parse_us);
    all.bind_us.Append(cl.bind_us);
    all.prepare_us.Append(cl.prepare_us);
    all.execute_us.Append(cl.execute_us);
    for (const auto& [op, ms] : cl.op_ms) op_sum[op] += ms;
    if (cl.query_us.n() > 0 && cl.layered_us.n() > 0) {
      unattributed.push_back(cl.UnattributedPct());
    }
    report->Note(Fmt("class %-14s n=%zu parse_us=%.1f bind_us=%.1f "
                     "prepare_us=%.1f execute_us=%.1f query_us=%.1f "
                     "unattributed_pct=%.1f",
                     name.c_str(), cl.execute_us.n(), cl.parse_us.p50(),
                     cl.bind_us.p50(), cl.prepare_us.p50(),
                     cl.execute_us.p50(), cl.query_us.p50(),
                     cl.UnattributedPct()));
  }
  for (size_t i = 0; i < measure_classes.size(); ++i) {
    auto m = classes.find(measure_classes[i]);
    auto p = classes.find(plain_classes[i]);
    if (m == classes.end() || p == classes.end()) continue;
    measure.execute_us.Append(m->second.execute_us);
    plain.execute_us.Append(p->second.execute_us);
    const double base = p->second.execute_us.p50();
    report->Note(Fmt("cost_vs_plain %-14s %.2fx (measure %.1f us / plain "
                     "%s %.1f us)",
                     measure_classes[i].c_str(),
                     base > 0 ? m->second.execute_us.p50() / base : 0,
                     m->second.execute_us.p50(), plain_classes[i].c_str(),
                     base));
  }
  report->Set("parser.parse_us", all.parse_us.p50(), "us");
  report->Set("binder.bind_us", all.bind_us.p50(), "us");
  report->Set("engine.prepare_us", all.prepare_us.p50(), "us");
  report->Set("engine.execute_us", all.execute_us.p50(), "us");
  report->Set("engine.unattributed_pct", Median(unattributed), "%");
  const double base = plain.execute_us.p50();
  report->Set("measure.cost_vs_plain",
              base > 0 ? measure.execute_us.p50() / base : 0, "ratio");
  report->Set("measure.plain_execute_us", base, "us");

  const double q = c.queries > 0 ? static_cast<double>(c.queries) : 1;
  report->Set("measure.grouped_builds_per_query", c.builds / q, "count");
  report->Set("measure.grouped_probes_per_query", c.probes / q, "count");
  report->Set("measure.source_scans_per_query", c.scans / q, "count");
  report->Set("measure.inline_evals_per_query", c.inline_evals / q, "count");
  report->Set("measure.parallel_tasks_per_query", c.parallel_tasks / q,
              "count");
  report->Set("measure.memo_hit_ratio",
              c.measure_evals > 0 ? c.memo_hits / c.measure_evals : 0, "ratio");
  const double n_classes = classes.empty() ? 1 : classes.size();
  for (const char* op :
       {"Scan", "Project", "Filter", "Aggregate", "Join", "Sort"}) {
    auto it = op_sum.find(op);
    report->Set(std::string("exec.op_ms.") + op,
                it == op_sum.end() ? 0 : it->second / n_classes, "ms");
  }
  report->Set("exec.vectorized_batches_per_query", c.vectorized_batches / q,
              "count");
  report->Set("exec.row_fallbacks_per_query", c.row_fallbacks / q, "count");
  report->Set("exec.guard_mb_per_query", c.bytes_charged / q / 1e6, "MB");
  report->Set("runtime.plan_cache_hit_ratio",
              untraced.plan_lookups > 0
                  ? static_cast<double>(untraced.plan_hits) /
                        untraced.plan_lookups
                  : 0,
              "ratio");
  report->Note(Fmt("plan cache (untraced half): %lld hits of %lld lookups",
                   static_cast<long long>(untraced.plan_hits),
                   static_cast<long long>(untraced.plan_lookups)));
  const double lookups = c.shared_hits + c.shared_misses;
  report->Set("runtime.shared_cache_hit_ratio",
              lookups > 0 ? c.shared_hits / lookups : 0, "ratio");
}

}  // namespace perfbench
