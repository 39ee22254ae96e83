// adhoc_measures: one analyst issuing measure queries one at a time
// (closed loop, one Session), each interleaved with its hand-written
// plain-SQL twin; after each round of the classes the same session
// appends a small batch of new orders. Literals are drawn per query, so
// evaluation contexts rarely repeat and the runtime caches save little: the
// measure and exec layers do the work. The write sits at a fixed point of
// the loop, so every write follows the same statements and which
// statements find warm caches depends only on the seed.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "bench/workload.h"
#include "data.h"
#include "layers.h"
#include "runtime/session.h"

namespace perfbench {
namespace {

// Small enough that a statement's working set stays in the cores' own
// caches: at 100k rows one memory-bound neighbour on a shared host slowed
// every statement by 20-40%, at 20k rows by under 5%.
constexpr int kRows = 20000;
constexpr int kProducts = 100;
constexpr int kCustomers = 4000;
constexpr int kSubset = 5;  // products per drawn subset
// A 50 s run makes 150-200 writes; 5-row batches keep the table within
// about 5% of its loaded size, so late reads cost about what early ones do.
constexpr int kWriteRows = 5;
// Statement classes between two writes: one write per round, so every
// write frees the cache state of the same six classes. Writes at two points
// of a round would be two kinds of write (about 3.5 ms after the first
// three classes, 1 ms after the last three), with the median between them.
constexpr int kClassesPerWrite = 6;
// Closed-loop reads complete at about this rate on a 4-core host; it fixes
// the tail percentiles for the run length.
constexpr double kExpectedReadsPerSecond = 25.0;

// The paper's listings as statement classes; each draws its literals and
// returns the measure statement and its plain-SQL twin.
struct Pair {
  std::string measure, plain;
};

const std::vector<std::string>& Classes() {
  static const std::vector<std::string> k = {
      "bare", "aggregate_where", "share_all", "yoy", "rollup",
      "visible_join"};
  return k;
}

Pair Draw(const std::string& cls, std::mt19937_64* rng) {
  auto window = [&](int days) {
    const int64_t d = Uniform(rng, HistoryFirstDay(), HistoryLastDay() - days);
    return "BETWEEN " + DateLiteral(d) + " AND " + DateLiteral(d + days);
  };
  if (cls == "bare") {  // Listing 4: a bare measure per group
    const std::string p = DrawNameList("P", kProducts, kSubset, rng);
    const std::string w = window(30);
    return {"SELECT prodName, orderDate, sumRevenue AS r, orderCount AS n "
            "FROM EO WHERE prodName IN (" + p + ") AND orderDate " + w +
                " GROUP BY prodName, orderDate ORDER BY prodName, orderDate",
            "SELECT prodName, orderDate, SUM(revenue) AS r, COUNT(*) AS n "
            "FROM Orders WHERE prodName IN (" + p + ") AND orderDate " + w +
                " GROUP BY prodName, orderDate ORDER BY prodName, orderDate"};
  }
  if (cls == "aggregate_where") {  // Listing 3: AGGREGATE under a WHERE
    const std::string w = window(120);
    return {"SELECT prodName, AGGREGATE(sumRevenue) AS r, "
            "AGGREGATE(margin) AS m FROM EO WHERE orderDate " + w +
                " GROUP BY prodName ORDER BY prodName",
            "SELECT prodName, SUM(revenue) AS r, "
            "(SUM(revenue) - SUM(cost)) * 1.0 / SUM(revenue) AS m "
            "FROM Orders WHERE orderDate " + w +
                " GROUP BY prodName ORDER BY prodName"};
  }
  if (cls == "share_all") {  // Listing 6: share of total via AT (ALL ...)
    const std::string p = DrawNameList("P", kProducts, kSubset, rng);
    const std::string w = window(30);
    return {"SELECT prodName, orderDate, sumRevenue AS r, "
            "sumRevenue * 1.0 / sumRevenue AT (ALL prodName) AS share "
            "FROM EO WHERE prodName IN (" + p + ") AND orderDate " + w +
                " GROUP BY prodName, orderDate ORDER BY prodName, orderDate",
            "SELECT o.prodName, o.orderDate, SUM(o.revenue) AS r, "
            "SUM(o.revenue) * 1.0 / t.total AS share FROM Orders AS o "
            "JOIN (SELECT orderDate, SUM(revenue) AS total FROM Orders "
            "WHERE orderDate " + w + " GROUP BY orderDate) AS t "
                "ON o.orderDate = t.orderDate WHERE o.prodName IN (" + p +
                ") AND o.orderDate " + w +
                " GROUP BY o.prodName, o.orderDate, t.total "
                "ORDER BY o.prodName, o.orderDate"};
  }
  if (cls == "yoy") {  // Listings 7/10: year over year via SET / CURRENT
    const std::string p = DrawNameList("P", kProducts, kSubset, rng);
    const std::string y = std::to_string(Uniform(rng, 2023, 2024));
    const std::string per_year =
        "(SELECT prodName, YEAR(orderDate) AS orderYear, SUM(revenue) AS r "
        "FROM Orders WHERE prodName IN (" + p +
        ") GROUP BY prodName, YEAR(orderDate))";
    return {"SELECT prodName, orderYear, sumRevenue AS r, "
            "sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS prev "
            "FROM EO WHERE prodName IN (" + p + ") AND orderYear = " + y +
                " GROUP BY prodName, orderYear ORDER BY prodName",
            "SELECT c.prodName, c.orderYear, c.r, p.r AS prev FROM " +
                per_year + " AS c LEFT JOIN " + per_year +
                " AS p ON c.prodName = p.prodName "
                "AND p.orderYear = c.orderYear - 1 WHERE c.orderYear = " + y +
                " ORDER BY c.prodName"};
  }
  if (cls == "rollup") {  // Listing 8: VISIBLE totals under ROLLUP
    const std::string p = DrawNameList("P", kProducts, kSubset, rng);
    const std::string w = window(120);
    return {"SELECT prodName, COUNT(*) AS c, AGGREGATE(sumRevenue) AS rAgg, "
            "sumRevenue AT (VISIBLE) AS rViz FROM EO WHERE prodName IN (" +
                p + ") AND orderDate " + w + " GROUP BY ROLLUP(prodName)",
            "SELECT prodName, COUNT(*) AS c, SUM(revenue) AS rAgg, "
            "SUM(revenue) AS rViz FROM Orders WHERE prodName IN (" + p +
                ") AND orderDate " + w + " GROUP BY ROLLUP(prodName)"};
  }
  // visible_join, Listing 9: VISIBLE keeps the customer grain across a join.
  const std::string w = window(120);
  const std::string age = std::to_string(Uniform(rng, 28, 32));
  const std::string filter =
      "WHERE c.custAge >= " + age + " AND o.orderDate " + w;
  return {"SELECT o.prodName, COUNT(*) AS orderCount, "
          "AVG(c.custAge) AS weightedAvgAge, "
          "c.avgAge AT (VISIBLE) AS visibleAvgAge "
          "FROM Orders AS o JOIN EC AS c USING (custName) " + filter +
              " GROUP BY o.prodName ORDER BY orderCount DESC, o.prodName "
              "LIMIT 20",
          "SELECT a.prodName, a.orderCount, a.weightedAvgAge, "
          "b.visibleAvgAge FROM (SELECT o.prodName, COUNT(*) AS orderCount, "
          "AVG(c.custAge) AS weightedAvgAge FROM Orders AS o "
          "JOIN Customers AS c USING (custName) " + filter +
              " GROUP BY o.prodName) AS a JOIN (SELECT prodName, "
              "AVG(custAge) AS visibleAvgAge FROM (SELECT DISTINCT "
              "o.prodName, c.custName, c.custAge FROM Orders AS o "
              "JOIN Customers AS c USING (custName) " + filter +
              ") AS d GROUP BY prodName) AS b ON a.prodName = b.prodName "
              "ORDER BY a.orderCount DESC, a.prodName LIMIT 20"};
}

std::unique_ptr<msql::Engine> Setup(uint64_t seed, int64_t* rows_loaded,
                                    double* load_s) {
  msql::EngineOptions options;
  options.enable_plan_cache = true;
  auto db = std::make_unique<msql::Engine>(options);
  const auto t0 = Clock::now();
  msql::bench::LoadOrders(db.get(), kRows, kProducts, kCustomers,
                          static_cast<uint32_t>(seed * 2654435761u + 1));
  msql::bench::LoadCustomers(db.get(), kCustomers,
                             static_cast<uint32_t>(seed * 40503u + 7));
  *rows_loaded = kRows + kCustomers;
  *load_s = MsBetween(t0, Clock::now()) / 1e3;
  // Warm-up: one round of every class finishes the engine's lazy set-up
  // (measure worker pool, columnar table caches) on every operator path.
  std::mt19937_64 warm(seed + 1);
  for (const std::string& cls : Classes()) {
    const Pair p = Draw(cls, &warm);
    Require(db->Query(p.measure).status(), "warm-up " + cls);
    Require(db->Query(p.plain).status(), "warm-up " + cls + "_plain");
  }
  return db;
}

struct PhaseResult {
  Series measure_ms, plain_ms, write_ms;
  std::map<std::string, ClassLayers> layers;
  CounterSums counters;
  double elapsed_s = 0;
  int64_t attempted = 0, failed = 0;
  uint64_t evictions = 0;
  // Evictions also count the entries each write invalidates; the cache's
  // size just before a write shows whether the reads outgrow its budget.
  uint64_t peak_shared_bytes = 0;
  std::vector<SpanLog> logs;
};

// One measured phase on `db`: the analyst loop.
PhaseResult RunPhase(msql::Engine* db, const RunConfig& cfg, double seconds,
                     bool traced, Checker* checker) {
  PhaseResult out;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const uint64_t evictions0 = db->stats().shared_cache_evictions;
  out.logs.emplace_back(start);

  auto session = db->CreateSession();
  const msql::QueryContext ctx = ContextWith(db->options());
  std::mt19937_64 rng(cfg.seed * 104729 + 11);
  std::mt19937_64 write_rng(cfg.seed * 7919 + 3);
  SpanLog* log = traced ? &out.logs[0] : nullptr;
  uint64_t stmt = 0;
  auto run = [&](const std::string& cls, const std::string& sql,
                 Series* series) -> msql::Result<msql::ResultSet> {
    ++stmt;
    ++out.attempted;
    ClassLayers& cl = out.layers[cls];
    const auto t0 = Clock::now();
    msql::Result<msql::ResultSet> rs(msql::Status::Ok());
    // The traced path's own Parser and Binder calls come on top of the
    // parse and bind PrepareSelect does; they are left out of the traced
    // latency, so trace.overhead_pct compares the same work.
    double extra_ms = 0;
    if (traced) {
      ScopedSpan root(log, stmt, "statement." + cls);
      LayerSample sample;
      rs = TracedSelect(db, sql, ctx, log, stmt, root.id(), &sample);
      cl.Add(sample);
      extra_ms = (sample.parse_us + sample.bind_us) / 1e3;
    } else {
      rs = session->Query(sql);
    }
    const double ms = MsBetween(t0, Clock::now()) - extra_ms;
    if (!rs.ok()) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", cls.c_str(),
                   rs.status().ToString().c_str());
      return rs;
    }
    if (!traced) cl.query_us.Add(ms * 1e3);
    series->Add(ms);
    if (rs.value().stats() != nullptr) out.counters.Add(*rs.value().stats());
    return rs;
  };
  auto write = [&] {
    if (traced) {
      out.peak_shared_bytes =
          std::max(out.peak_shared_bytes, db->stats().shared_cache_bytes);
    }
    const std::string sql =
        NewOrdersInsert(kWriteRows, kProducts, kCustomers, &write_rng);
    ++stmt;
    ++out.attempted;
    const auto t0 = Clock::now();
    msql::Status st;
    {
      ScopedSpan span(log, stmt, "catalog.insert");
      st = session->Execute(sql);
    }
    out.write_ms.Add(MsBetween(t0, Clock::now()));
    if (!st.ok()) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: write failed: %s\n",
                   st.ToString().c_str());
    }
  };
  while (Clock::now() < stop) {
    for (size_t i = 0; i < Classes().size() && Clock::now() < stop; ++i) {
      const std::string& cls = Classes()[i];
      const Pair p = Draw(cls, &rng);
      auto m = run(cls, p.measure, &out.measure_ms);
      auto q = run(cls + "_plain", p.plain, &out.plain_ms);
      if (m.ok() && q.ok()) checker->Compare(cls, m.value(), q.value());
      if ((i + 1) % kClassesPerWrite == 0 && Clock::now() < stop) write();
    }
  }
  out.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  out.evictions = db->stats().shared_cache_evictions - evictions0;
  return out;
}

}  // namespace

Report RunAdhocMeasures(const RunConfig& cfg) {
  Report report;
  Checker checker;
  const double tail_q = TailQuantileFor(
      static_cast<size_t>(kExpectedReadsPerSecond * cfg.seconds));
  const double write_tail_q = TailQuantileFor(static_cast<size_t>(
      kExpectedReadsPerSecond * cfg.seconds / (2 * kClassesPerWrite)));
  report.Note(Fmt("adhoc_measures: %d Orders rows, %d products, %d "
                  "customers; 1 closed-loop analyst session, %zu measure "
                  "classes each with a plain-SQL twin; the session appends "
                  "%d rows after every %d classes",
                  kRows, kProducts, kCustomers, Classes().size(),
                  kWriteRows, kClassesPerWrite));
  if (!cfg.trace) {
    std::unique_ptr<msql::Engine> db;
    int64_t rows = 0;
    double load_s = 0;
    const double setup_s = MedianSetupSeconds(
        kSetups, &db, [&] { return Setup(cfg.seed, &rows, &load_s); });
    PhaseResult r = RunPhase(db.get(), cfg, cfg.seconds, false, &checker);
    Series reads = r.measure_ms;
    reads.Append(r.plain_ms);
    report.Set("setup_s", setup_s, "s");
    report.Set("qps", reads.n() / r.elapsed_s, "1/s");
    report.Set("read_p50_ms", reads.p50(), "ms");
    report.Set("read_tail_ms", reads.at(tail_q), "ms");
    report.Set("measure_p50_ms", r.measure_ms.p50(), "ms");
    report.Set("plain_p50_ms", r.plain_ms.p50(), "ms");
    report.Set("write_p50_ms", r.write_ms.p50(), "ms");
    report.Set("write_tail_ms", r.write_ms.at(write_tail_q), "ms");
    report.Note(Fmt("samples: reads=%zu (measure %zu, plain %zu) writes=%zu "
                    "run_s=%.2f read_tail=p%.1f write_tail=p%.1f "
                    "shared_cache_evictions=%llu",
                    reads.n(), r.measure_ms.n(), r.plain_ms.n(),
                    r.write_ms.n(), r.elapsed_s, tail_q * 100,
                    write_tail_q * 100,
                    static_cast<unsigned long long>(r.evictions)));
    for (const auto& [cls, cl] : r.layers) {
      report.Note(Fmt("class %-22s n=%zu p50_ms=%.3f", cls.c_str(),
                      cl.query_us.n(), cl.query_us.p50() / 1e3));
    }
    report.attempted = r.attempted;
    report.failed = r.failed;
  } else {
    // Untraced then traced, each on a fresh engine with the same seed, so
    // both phases see the same statements from the same cache state.
    int64_t rows = 0;
    double load_s = 0;
    auto db = Setup(cfg.seed, &rows, &load_s);
    PhaseResult a = RunPhase(db.get(), cfg, cfg.seconds / 2, false, &checker);
    db.reset();
    db = Setup(cfg.seed, &rows, &load_s);
    PhaseResult b = RunPhase(db.get(), cfg, cfg.seconds / 2, true, &checker);
    for (auto& [cls, cl] : b.layers) cl.query_us = a.layers[cls].query_us;
    // Operator self times: one EXPLAIN ANALYZE per statement class.
    std::mt19937_64 rng(cfg.seed * 31 + 5);
    for (const std::string& cls : Classes()) {
      const Pair p = Draw(cls, &rng);
      b.layers[cls].op_ms = ExplainOps(db.get(), p.measure);
      b.layers[cls + "_plain"].op_ms = ExplainOps(db.get(), p.plain);
    }
    std::vector<std::string> plain;
    for (const std::string& cls : Classes()) plain.push_back(cls + "_plain");
    ReportLayers(b.layers, Classes(), plain, b.counters, a.counters,
                 &report);
    Series ra = a.measure_ms, rb = b.measure_ms;
    ra.Append(a.plain_ms);
    rb.Append(b.plain_ms);
    report.Set("runtime.shared_cache_evictions",
               static_cast<double>(b.evictions), "count");
    report.Set("catalog.insert_ms", b.write_ms.p50(), "ms");
    report.Set("catalog.load_rows_per_s", rows / load_s, "1/s");
    report.Set("trace.overhead_pct", 100.0 * (rb.p50() / ra.p50() - 1), "%");
    WriteSpans(cfg.out_dir + "/spans-adhoc_measures.jsonl", {&b.logs[0]});
    report.Note(Fmt("traced phase: reads=%zu writes=%zu; untraced phase: "
                    "reads=%zu; spans=%zu; shared measure cache before a "
                    "write: peak %.1f MiB of a %.1f MiB budget",
                    rb.n(), b.write_ms.n(), ra.n(), b.logs[0].spans().size(),
                    b.peak_shared_bytes / 1048576.0,
                    db->shared_cache().max_bytes() / 1048576.0));
    report.attempted = a.attempted + b.attempted;
    report.failed = a.failed + b.failed;
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Note(Fmt("output checks: %lld compared, %lld mismatched",
                  static_cast<long long>(checker.checked()),
                  static_cast<long long>(checker.mismatches())));
  report.attempted += checker.checked();
  report.failed += checker.mismatches();
  report.correct = checker.mismatches() == 0 && checker.checked() > 0;
  return report;
}

}  // namespace perfbench
