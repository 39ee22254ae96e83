// Plan-cache correctness (docs/NETWORKING.md): a cache hit must be
// indistinguishable from a cold execution under every measure strategy,
// entries must invalidate when the catalog generation moves, and parameter
// binding against a prepared plan must fail with a typed error on type
// mismatch.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "testing/compare.h"

namespace msql {
namespace {

constexpr char kSetup[] = R"(
CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, revenue INTEGER);
INSERT INTO Orders VALUES
  ('Happy', 'Alice', 6), ('Acme', 'Bob', 5), ('Happy', 'Alice', 7),
  ('Whizz', 'Celia', 3), ('Happy', 'Bob', 4);
CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders;
)";

const char* kQueries[] = {
    "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
    "ORDER BY prodName",
    "SELECT prodName, AGGREGATE(r) / (r AT (ALL)) AS frac FROM EO "
    "GROUP BY prodName ORDER BY prodName",
    "SELECT custName, r AT (ALL) AS total FROM EO GROUP BY custName "
    "ORDER BY custName",
};

EngineOptions MakeOptions(MeasureStrategy strategy, bool enable_cache) {
  EngineOptions options;
  options.measure_strategy = strategy;
  options.enable_plan_cache = enable_cache;
  return options;
}

TEST(PlanCacheTest, HitAfterPrepareMatchesColdExecutionUnderAllStrategies) {
  for (MeasureStrategy strategy :
       {MeasureStrategy::kNaive, MeasureStrategy::kMemoized,
        MeasureStrategy::kGrouped}) {
    Engine cold(MakeOptions(strategy, /*enable_cache=*/false));
    Engine warm(MakeOptions(strategy, /*enable_cache=*/true));
    ASSERT_TRUE(cold.Execute(kSetup).ok());
    ASSERT_TRUE(warm.Execute(kSetup).ok());
    for (const char* sql : kQueries) {
      auto baseline = cold.Query(sql);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      ASSERT_NE(baseline.value().stats(), nullptr);
      EXPECT_EQ(baseline.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kOff);

      // First execution fills the cache, the repeat must hit it.
      auto fill = warm.Query(sql);
      ASSERT_TRUE(fill.ok()) << fill.status().ToString();
      ASSERT_NE(fill.value().stats(), nullptr);
      EXPECT_EQ(fill.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kMiss);
      auto hit = warm.Query(sql);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      ASSERT_NE(hit.value().stats(), nullptr);
      EXPECT_EQ(hit.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kHit);

      auto diff = testing::DiffResults(baseline.value(), hit.value(),
                                       testing::CompareOptions{});
      EXPECT_FALSE(diff.has_value())
          << "strategy " << static_cast<int>(strategy) << ", query '" << sql
          << "': cached result diverged from cold execution: " << *diff;
    }
  }
}

TEST(PlanCacheTest, PreparedExecutionMatchesColdExecution) {
  Engine cold(MakeOptions(MeasureStrategy::kGrouped, false));
  Engine warm(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(cold.Execute(kSetup).ok());
  ASSERT_TRUE(warm.Execute(kSetup).ok());
  const std::string sql =
      "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > ? "
      "GROUP BY prodName ORDER BY prodName";

  auto prepared = warm.PrepareSelect(sql, {TypeKind::kInt64});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value()->param_count, 1);

  for (int64_t threshold : {0, 4, 6}) {
    auto baseline = cold.Query(
        "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > " +
        std::to_string(threshold) + " GROUP BY prodName ORDER BY prodName");
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    auto executed =
        warm.QueryPlanned(prepared.value(), {Value::Int(threshold)});
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    ASSERT_NE(executed.value().stats(), nullptr);
    EXPECT_EQ(executed.value().stats()->plan_cache,
              QueryStats::PlanCacheOutcome::kHit);
    auto diff = testing::DiffResults(baseline.value(), executed.value(),
                                     testing::CompareOptions{});
    EXPECT_FALSE(diff.has_value())
        << "threshold " << threshold << ": " << *diff;
  }
}

TEST(PlanCacheTest, CatalogGenerationBumpInvalidates) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  const char* sql = kQueries[0];

  ASSERT_TRUE(db.Query(sql).ok());
  auto hit = db.Query(sql);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // Any catalog mutation moves the generation; the cached plan must not
  // survive it (it may reference dropped objects or stale data).
  ASSERT_TRUE(db.Execute("INSERT INTO Orders VALUES ('Acme', 'Dana', 9)")
                  .ok());
  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kMiss)
      << "stale plan served after catalog generation bump";
  // The re-prepared plan sees the new row: Acme is now 5 + 9.
  EXPECT_EQ(after.value().Get(0, "v").int_val(), 14);
  EXPECT_GE(db.plan_cache().stats().invalidations, 1u);

  // Prepared handles observe the same discipline: a stale handle is
  // refused with kCatalog so the caller re-prepares.
  auto prepared = db.PrepareSelect(kQueries[0], {});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Orders VALUES ('Whizz', 'Eve', 1)")
                  .ok());
  auto stale = db.QueryPlanned(prepared.value(), {});
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kCatalog);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos)
      << stale.status().ToString();
}

TEST(PlanCacheTest, ConcurrentWritesNeverFailRawTextReads) {
  // A write landing between the raw-text cache lookup and the run leaves
  // the cached plan stale. For a plain text SELECT that is a cache miss,
  // never a kCatalog error the client would have to handle.
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Log (n INTEGER)").ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Every insert moves the catalog generation the reader's plan records.
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      ASSERT_TRUE(db.InsertRows("Log", {{Value::Int(i)}}).ok());
    }
  });
  int catalog_errors = 0;
  for (int i = 0; i < 5000; ++i) {
    auto r = db.Query(kQueries[0]);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kCatalog)
          << r.status().ToString();
      ++catalog_errors;
    }
  }
  done.store(true);
  writer.join();
  EXPECT_EQ(catalog_errors, 0);
}

TEST(PlanCacheTest, ParameterTypeMismatchIsTypedError) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  auto prepared = db.PrepareSelect(
      "SELECT prodName FROM Orders WHERE revenue > ? ORDER BY prodName",
      {TypeKind::kInt64});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Unconvertible value: a non-numeric string cannot bind an INT64 slot.
  auto mismatch =
      db.QueryPlanned(prepared.value(), {Value::String("not a number")});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("parameter $1 type mismatch"),
            std::string::npos)
      << mismatch.status().ToString();

  // Wrong arity is refused before execution.
  auto arity = db.QueryPlanned(prepared.value(), {});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), ErrorCode::kInvalidArgument);

  // Losslessly convertible values coerce instead of failing.
  auto coerced = db.QueryPlanned(prepared.value(), {Value::String("4")});
  ASSERT_TRUE(coerced.ok()) << coerced.status().ToString();
  EXPECT_EQ(coerced.value().num_rows(), 3u);  // 6, 7, 5 > 4
}

TEST(PlanCacheTest, DeclaredArityMustMatchStatement) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  auto wrong = db.PrepareSelect(
      "SELECT prodName FROM Orders WHERE revenue > ?", {});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), ErrorCode::kBind);
}

TEST(PlanCacheTest, LruBoundsAndMetrics) {
  EngineOptions options;
  options.enable_plan_cache = true;
  options.plan_cache_max_entries = 4;
  Engine db(options);
  ASSERT_TRUE(db.Execute(kSetup).ok());

  for (int i = 0; i < 16; ++i) {
    auto r = db.Query("SELECT prodName FROM Orders WHERE revenue > " +
                      std::to_string(i) + " ORDER BY prodName");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const PlanCache::Stats stats = db.plan_cache().stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GE(stats.evictions, 1u);

  const std::string metrics = db.MetricsText();
  for (const char* name :
       {"msql_plan_cache_hits_total", "msql_plan_cache_misses_total",
        "msql_plan_cache_evictions_total", "msql_plan_cache_entries",
        "msql_plan_cache_bytes"}) {
    EXPECT_NE(metrics.find(name), std::string::npos)
        << "metric " << name << " missing from exposition";
  }
}

TEST(PlanCacheTest, ExplainAnalyzeReportsOutcome) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  const std::string analyze =
      std::string("EXPLAIN ANALYZE ") + kQueries[0];

  auto cold = db.Query(analyze);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold.value().ToString().find("PlanCache: miss"),
            std::string::npos);

  // EXPLAIN ANALYZE probes the cache by canonical text, so the plain query
  // above it warms the entry it hits.
  ASSERT_TRUE(db.Query(kQueries[0]).ok());
  auto warm = db.Query(analyze);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_NE(warm.value().ToString().find("PlanCache: hit"),
            std::string::npos);

  Engine off(MakeOptions(MeasureStrategy::kGrouped, false));
  ASSERT_TRUE(off.Execute(kSetup).ok());
  auto disabled = off.Query(analyze);
  ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
  EXPECT_NE(disabled.value().ToString().find("PlanCache: off"),
            std::string::npos);
}

}  // namespace
}  // namespace msql
