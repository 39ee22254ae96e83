// dashboard_refresh: two readers refresh a fixed dashboard over a star
// schema published as one wide measure view (paper section 5.3) in a closed
// loop. One submits through QueryScheduler; the other is a net::Client on a
// loopback connection to an in-process MsqldServer, so the wire layers sit
// on the same statements. Meanwhile a writer
// appends a small INSERT batch on a fixed schedule. The dashboard fits in
// the runtime caches; each write bumps the catalog generation, so the
// reads after it refill the plan cache, the shared measure cache, the
// grouped indexes and the columnar caches. The period sets the share of
// reads that pay the refill.

#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "data.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"

namespace perfbench {
namespace {

// Sized, like adhoc_measures, so a read's working set stays in the cores'
// own caches; two readers and the writer leave a core of a 4-core host free.
constexpr int kFactRows = 20000;
constexpr int kReaders = 2;
constexpr int kWireReader = kReaders - 1;  // the reader that uses the wire
constexpr int kWriteRows = 10;  // 100 writes grow Sales by 5% in a 50 s run
constexpr int kWritePeriodMs = 500;
constexpr double kExpectedReadsPerSecond = 30.0;

struct Statement {
  const char* cls;
  const char* sql;
};

// Four dashboard statements over the measure view, each followed by its
// hand-written twin over the base tables; readers run them in drawn pairs.
// All but the KPI strip read only history (2023-2024), so their rows do not
// change when the writer appends 2025 sales; the KPI strip reads everything
// and is checked against the writer's running totals.
const Statement kStatements[] = {
    {"kpi",
     "SELECT AGGREGATE(revenue) AS rev, AGGREGATE(totalUnits) AS units, "
     "AGGREGATE(txns) AS txns FROM Mart"},
    {"kpi_plain",
     "SELECT SUM(f.amount) AS rev, SUM(f.units) AS units, COUNT(*) AS txns "
     "FROM Sales AS f JOIN Products AS p ON f.productId = p.productId "
     "JOIN Stores AS s ON f.storeId = s.storeId"},
    {"region_share",
     "SELECT saleYear, region, AGGREGATE(revenue) AS rev, "
     "revenue * 1.0 / revenue AT (ALL region) AS share FROM Mart "
     "WHERE saleYear = 2024 GROUP BY saleYear, region "
     "ORDER BY rev DESC, region"},
    {"region_share_plain",
     "SELECT YEAR(f.saleDate) AS saleYear, s.region, SUM(f.amount) AS rev, "
     "SUM(f.amount) * 1.0 / (SELECT SUM(amount) FROM Sales "
     "WHERE YEAR(saleDate) = 2024) AS share "
     "FROM Sales AS f JOIN Stores AS s ON f.storeId = s.storeId "
     "WHERE YEAR(f.saleDate) = 2024 GROUP BY YEAR(f.saleDate), s.region "
     "ORDER BY rev DESC, s.region"},
    {"subtotals",
     "SELECT category, region, AGGREGATE(revenue) AS rev FROM Mart "
     "WHERE saleYear <= 2024 GROUP BY ROLLUP(category, region)"},
    {"subtotals_plain",
     "SELECT p.category, s.region, SUM(f.amount) AS rev FROM Sales AS f "
     "JOIN Products AS p ON f.productId = p.productId "
     "JOIN Stores AS s ON f.storeId = s.storeId "
     "WHERE YEAR(f.saleDate) <= 2024 GROUP BY ROLLUP(p.category, s.region)"},
    {"period",
     "SELECT category, AGGREGATE(revenue) AS rev2024, "
     "revenue AT (SET saleYear = 2023) AS rev2023 FROM Mart "
     "WHERE saleYear = 2024 GROUP BY category"},
    {"period_plain",
     "SELECT p.category, "
     "SUM(f.amount) FILTER (WHERE YEAR(f.saleDate) = 2024) AS rev2024, "
     "SUM(f.amount) FILTER (WHERE YEAR(f.saleDate) = 2023) AS rev2023 "
     "FROM Sales AS f JOIN Products AS p ON f.productId = p.productId "
     "GROUP BY p.category"},
};
constexpr int kNumStatements = sizeof(kStatements) / sizeof(kStatements[0]);

// Engine::QueryWith's raw-text plan-cache path looks a plan up at one
// catalog generation and runs it at the next, so a write landing in between
// fails a plain text SELECT with "prepared plan is stale" (kCatalog). That
// is a defect of the program, not of the statement: readers retry such a
// statement once, as msqld does for its stale prepared statements, the
// retry counts in the read's latency, and the run reports how often it
// happened.
bool StaleTextPlan(const msql::Result<msql::ResultSet>& rs) {
  return !rs.ok() && rs.status().code() == msql::ErrorCode::kCatalog;
}

struct Fixture {
  std::unique_ptr<msql::Engine> db;
  std::unique_ptr<msql::QueryScheduler> scheduler;
  std::unique_ptr<msql::net::MsqldServer> server;
  std::unique_ptr<msql::net::Client> client;
  SalesTotals base;
  int64_t rows_loaded = 0;
  double load_s = 0;
  ~Fixture() {
    // Everything that holds sessions goes before the engine they point into.
    if (client != nullptr) client->Disconnect();
    if (server != nullptr) server->Stop();
    if (scheduler != nullptr) scheduler->Drain();
    scheduler.reset();
  }
};

std::unique_ptr<Fixture> Setup(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  msql::EngineOptions options;
  options.enable_plan_cache = true;
  // The readers already keep the cores busy; morsel-parallel measure
  // evaluation inside each read would only oversubscribe them.
  options.measure_parallelism = 1;
  f->db = std::make_unique<msql::Engine>(options);
  std::mt19937_64 rng(seed);
  const auto t0 = Clock::now();
  f->base = LoadStarSchema(f->db.get(), kFactRows, &rng);
  f->rows_loaded = f->base.rows + kStarProducts + kStarStores;
  f->load_s = MsBetween(t0, Clock::now()) / 1e3;
  msql::SchedulerOptions sched;
  sched.num_threads = kReaders - 1;  // one per in-process reader
  f->scheduler = std::make_unique<msql::QueryScheduler>(sched);
  msql::net::ServerOptions server_options;
  server_options.num_handler_threads = 1;
  server_options.num_worker_threads = 1;  // one connection, one statement
  f->server =
      std::make_unique<msql::net::MsqldServer>(f->db.get(), server_options);
  Require(f->server->Start(), "server start");
  f->client = std::make_unique<msql::net::Client>();
  msql::net::ClientOptions client_options;
  client_options.user = "bench";
  client_options.io_timeout_ms = 10000;
  Require(f->client->Connect("127.0.0.1", f->server->port(), client_options),
          "client connect");
  // Warm-up: one refresh fills the caches the dashboard fits in; one
  // statement over the wire finishes the server's lazy set-up.
  for (const Statement& s : kStatements) {
    Require(f->db->Query(s.sql).status(), std::string("warm-up ") + s.cls);
  }
  Require(f->client->Query(kStatements[0].sql).status(),
          "warm-up over the wire");
  return f;
}

// The writer's batches, prepared before the run so readers can check the
// live KPI strip against the running totals after any number of writes.
struct WritePlan {
  std::vector<std::string> sql;
  std::vector<int64_t> amount, units;  // cumulative after k batches
};

WritePlan PlanWrites(uint64_t seed, double seconds) {
  const int writes = static_cast<int>(seconds * 1000 / kWritePeriodMs) + 1;
  WritePlan plan;
  std::mt19937_64 rng(seed * 7919 + 5);
  int64_t amount = 0, units = 0;
  plan.amount.push_back(0);
  plan.units.push_back(0);
  for (int i = 0; i < writes; ++i) {
    plan.sql.push_back(NewSalesInsert(kWriteRows, &rng, &amount, &units));
    plan.amount.push_back(amount);
    plan.units.push_back(units);
  }
  return plan;
}

struct PhaseResult {
  Series measure_ms, plain_ms, write_ms, lag_ms, queue_us, refill_ms;
  Series server_us, overhead_us;  // the wire reader's split
  std::map<std::string, ClassLayers> layers;
  CounterSums counters;
  double elapsed_s = 0;
  int64_t attempted = 0, failed = 0, retries = 0, stale_text = 0;
  uint64_t evictions = 0;
  // Evictions also count the entries each write invalidates; the cache's
  // size just before a write shows whether the dashboard fits its budget.
  uint64_t peak_shared_bytes = 0;
  std::vector<SpanLog> logs;
};

PhaseResult RunPhase(Fixture* f, const RunConfig& cfg, double seconds,
                     bool traced, Checker* checker) {
  PhaseResult out;
  msql::Engine* db = f->db.get();
  const WritePlan plan = PlanWrites(cfg.seed, seconds);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const uint64_t evictions0 = db->stats().shared_cache_evictions;
  // Writes begun / completed; a read that saw `done` before it was
  // submitted and `begun` after it returned observed between those counts.
  std::atomic<int> begun{0}, done{0};
  // Per statement: the write count its latest read saw, to find the first
  // read after each write (the refill).
  std::atomic<int> last_seen[kNumStatements];
  for (auto& a : last_seen) a.store(0);
  for (int r = 0; r < kReaders; ++r) out.logs.emplace_back(start);

  // The writer: an open loop, each batch timed from when it was due.
  std::thread writer([&] {
    auto session = db->CreateSession();
    auto due = start + std::chrono::milliseconds(kWritePeriodMs);
    for (size_t k = 0; k < plan.sql.size() && due < stop; ++k) {
      std::this_thread::sleep_until(due);
      out.lag_ms.Add(MsBetween(due, Clock::now()));
      if (traced) {
        out.peak_shared_bytes =
            std::max(out.peak_shared_bytes, db->stats().shared_cache_bytes);
      }
      begun.fetch_add(1);
      const msql::Status st = session->Execute(plan.sql[k]);
      done.fetch_add(1);
      const auto end = Clock::now();
      if (!st.ok()) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: write failed: %s\n",
                     st.ToString().c_str());
      }
      ++out.attempted;
      out.write_ms.Add(MsBetween(due, end));
      due += std::chrono::milliseconds(kWritePeriodMs);
    }
  });

  struct ReaderOut {
    Series measure_ms, plain_ms, queue_us, refill_ms, server_us, overhead_us;
    std::map<std::string, ClassLayers> layers;
    std::map<int, Series> warm_ms;  // per statement, reads not after a write
    std::vector<msql::ResultSet> latest{kNumStatements};
    CounterSums counters;
    int64_t attempted = 0, failed = 0, retries = 0, stale_text = 0;
  };
  std::vector<ReaderOut> readers(kReaders);
  f->client->SetTrace(traced);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ReaderOut& ro = readers[r];
      const bool wire = r == kWireReader;
      SpanLog* log = traced ? &out.logs[r] : nullptr;
      auto session = db->CreateSession();
      const msql::QueryContext ctx = ContextWith(db->options());
      std::vector<msql::ResultSet>& latest = ro.latest;
      std::vector<double> first_after_write;  // (statement, ms) pairs below
      std::vector<int> first_after_write_stmt;
      uint64_t stmt = static_cast<uint64_t>(r) << 40;
      // Each reader draws the next pair (measure statement, then its twin)
      // from its own seeded stream. In a fixed cycle the two readers lock
      // into a phase for the whole run, which decides who pays each refill;
      // drawn pairs spread the refills evenly over both readers and runs.
      std::mt19937_64 rng(cfg.seed * 6151 + static_cast<uint64_t>(r) + 1);
      int pair = 0;
      for (int i = 0; Clock::now() < stop; ++i) {
        if (i % 2 == 0) pair = Uniform(&rng, 0, kNumStatements / 2 - 1);
        const int si = 2 * pair + i % 2;
        const Statement& s = kStatements[si];
        ++stmt;
        ++ro.attempted;
        const int writes_before = done.load();
        const auto t0 = Clock::now();
        msql::Result<msql::ResultSet> rs(msql::Status::Ok());
        double total_us = 0;
        // The traced readers' own Parser and Binder calls, left out of
        // their latency so trace.overhead_pct compares the same work.
        double extra_ms = 0;
        ClassLayers& cl = ro.layers[s.cls];
        if (wire) {
          // The client call, with the server's own time laid out inside it.
          {
            ScopedSpan root(log, stmt, std::string("request.") + s.cls);
            rs = f->client->Query(s.sql);
            if (StaleTextPlan(rs)) {
              ++ro.stale_text;
              rs = f->client->Query(s.sql);
            }
          }
          const auto end = Clock::now();
          if (rs.ok() && rs.value().stats() != nullptr) {
            total_us = static_cast<double>(rs.value().stats()->total_us);
            if (log != nullptr) {
              log->Add(stmt, "server",
                       static_cast<int>(log->spans().size()) - 1,
                       end - std::chrono::microseconds(
                                 rs.value().stats()->total_us),
                       end);
            }
            ro.server_us.Add(total_us);
            ro.overhead_us.Add(UsBetween(t0, end) - total_us);
          }
        } else if (traced) {
          ScopedSpan root(log, stmt, std::string("statement.") + s.cls);
          LayerSample sample;
          for (int attempt = 0; attempt < 3; ++attempt) {
            auto prepared =
                TracedPrepare(db, s.sql, ctx, log, stmt, root.id(), &sample);
            extra_ms += (sample.parse_us + sample.bind_us) / 1e3;
            if (!prepared.ok()) {
              rs = prepared.status();
              break;
            }
            const auto submitted = Clock::now();
            auto fut =
                f->scheduler->SubmitPrepared(session, prepared.value(), {});
            if (!fut.ok()) {
              rs = fut.status();
              break;
            }
            rs = fut.value().get();
            const auto ready = Clock::now();
            const int wait = log->Add(stmt, "scheduler.wait", root.id(),
                                      submitted, ready);
            // A write between prepare and execute makes the plan stale;
            // the caller re-prepares, as the server does.
            if (!rs.ok() && rs.status().code() == msql::ErrorCode::kCatalog &&
                attempt < 2) {
              ++ro.retries;
              continue;
            }
            if (rs.ok() && rs.value().stats() != nullptr) {
              total_us = static_cast<double>(rs.value().stats()->total_us);
              const auto engine_start =
                  ready - std::chrono::microseconds(
                              rs.value().stats()->total_us);
              log->Add(stmt, "engine.run", wait,
                       std::max(engine_start, submitted), ready);
              ro.queue_us.Add(log->SelfUs(wait));
            }
            sample.execute_us = total_us;
            break;
          }
          cl.Add(sample);
        } else {
          for (int attempt = 0; attempt < 2; ++attempt) {
            auto fut = f->scheduler->Submit(session, s.sql);
            if (fut.ok()) {
              rs = fut.value().get();
            } else {
              rs = fut.status();
            }
            if (!StaleTextPlan(rs) || attempt == 1) break;
            ++ro.stale_text;
          }
        }
        const double ms = MsBetween(t0, Clock::now()) - extra_ms;
        const int writes_after = begun.load();
        if (!rs.ok()) {
          ++ro.failed;
          std::fprintf(stderr, "perfbench: %s failed: %s\n", s.cls,
                       rs.status().ToString().c_str());
          continue;
        }
        const msql::ResultSet& result = rs.value();
        // Engine counters and the scheduler's queue come from the in-process
        // readers; the wire carries only the server's time back. The engine's
        // own time (total_us, bind through render) is the untraced call the
        // layers are reconciled against, without the scheduler's queue.
        if (!wire && result.stats() != nullptr) {
          ro.counters.Add(*result.stats());
          if (!traced) {
            const double engine_us =
                static_cast<double>(result.stats()->total_us);
            ro.queue_us.Add(std::max(0.0, ms * 1e3 - engine_us));
            cl.query_us.Add(engine_us);
          }
        }
        const bool is_plain = (si % 2) == 1;
        (is_plain ? ro.plain_ms : ro.measure_ms).Add(ms);
        // The first read of a statement after a write pays the refill.
        int seen = last_seen[si].load();
        bool first = false;
        while (writes_before > seen) {
          if (last_seen[si].compare_exchange_weak(seen, writes_before)) {
            first = true;
            break;
          }
        }
        if (first) {
          first_after_write.push_back(ms);
          first_after_write_stmt.push_back(si);
        } else if (writes_before == writes_after) {
          ro.warm_ms[si].Add(ms);
        }
        latest[si] = result;
        if (si <= 1) {
          // Live KPI strip: some write count k in [before, after] must
          // explain all three totals exactly.
          bool ok = result.num_rows() == 1 && result.num_columns() == 3;
          bool matched = false;
          for (int k = writes_before; ok && k <= writes_after; ++k) {
            const msql::Row& row = result.rows()[0];
            matched |= row[0].ToString() ==
                           std::to_string(f->base.amount + plan.amount[k]) &&
                       row[1].ToString() ==
                           std::to_string(f->base.units + plan.units[k]) &&
                       row[2].ToString() ==
                           std::to_string(f->base.rows + k * kWriteRows);
          }
          checker->Expect(matched, Fmt("%s totals after %d..%d writes: %s",
                                       s.cls, writes_before, writes_after,
                                       Canonical(result).c_str()));
        } else if (is_plain && latest[si - 1].num_columns() > 0) {
          checker->Compare(kStatements[si - 1].cls, latest[si - 1], result);
        }
      }
      for (size_t k = 0; k < first_after_write.size(); ++k) {
        ro.refill_ms.Add(first_after_write[k] -
                         ro.warm_ms[first_after_write_stmt[k]].p50());
      }
    });
  }
  for (auto& t : threads) t.join();
  out.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  writer.join();
  // The history statements' rows never change, so the wire reader's rows
  // must equal an in-process reader's for the same statement.
  for (int si = 2; si < kNumStatements; ++si) {
    const msql::ResultSet& over_wire = readers[kWireReader].latest[si];
    const msql::ResultSet& in_process = readers[0].latest[si];
    if (over_wire.num_columns() > 0 && in_process.num_columns() > 0) {
      checker->Compare(std::string("wire vs in-process ") + kStatements[si].cls,
                       over_wire, in_process);
    }
  }
  for (ReaderOut& ro : readers) {
    out.measure_ms.Append(ro.measure_ms);
    out.plain_ms.Append(ro.plain_ms);
    out.queue_us.Append(ro.queue_us);
    out.refill_ms.Append(ro.refill_ms);
    out.server_us.Append(ro.server_us);
    out.overhead_us.Append(ro.overhead_us);
    for (auto& [cls, cl] : ro.layers) out.layers[cls].Append(cl);
    out.counters.Merge(ro.counters);
    out.attempted += ro.attempted;
    out.failed += ro.failed;
    out.retries += ro.retries;
    out.stale_text += ro.stale_text;
  }
  out.evictions = db->stats().shared_cache_evictions - evictions0;
  return out;
}

}  // namespace

Report RunDashboardRefresh(const RunConfig& cfg) {
  Report report;
  Checker checker;
  const double tail_q = TailQuantileFor(
      static_cast<size_t>(kExpectedReadsPerSecond * cfg.seconds));
  const double write_tail_q = TailQuantileFor(
      static_cast<size_t>(cfg.seconds * 1000 / kWritePeriodMs) - 1);
  report.Note(Fmt("dashboard_refresh: %d Sales rows, %d products, %d "
                  "stores; %d closed-loop readers (%d through QueryScheduler, "
                  "1 over loopback msqld) over %d statements (4 measure + 4 "
                  "plain twins); writer: %d rows every %d ms",
                  kFactRows, kStarProducts, kStarStores, kReaders,
                  kReaders - 1, kNumStatements, kWriteRows, kWritePeriodMs));
  std::vector<std::string> measure_classes, plain_classes;
  for (int i = 0; i < kNumStatements; i += 2) {
    measure_classes.push_back(kStatements[i].cls);
    plain_classes.push_back(kStatements[i + 1].cls);
  }
  if (!cfg.trace) {
    std::unique_ptr<Fixture> f;
    const double setup_s =
        MedianSetupSeconds(kSetups, &f, [&] { return Setup(cfg.seed); });
    PhaseResult r = RunPhase(f.get(), cfg, cfg.seconds, false, &checker);
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
    report.Note(Fmt("samples: reads=%zu (measure %zu, plain %zu; %zu over "
                    "the wire) writes=%zu run_s=%.2f read_tail=p%.1f "
                    "write_tail=p%.1f shared_cache_evictions=%llu "
                    "write_lag_p50_ms=%.3f",
                    reads.n(), r.measure_ms.n(), r.plain_ms.n(),
                    r.server_us.n(), r.write_ms.n(), r.elapsed_s,
                    tail_q * 100, write_tail_q * 100,
                    static_cast<unsigned long long>(r.evictions),
                    r.lag_ms.p50()));
    report.Note(Fmt("text SELECTs retried after a stale-plan error from "
                    "Engine::QueryWith (a program defect): %lld",
                    static_cast<long long>(r.stale_text)));
    report.attempted = r.attempted;
    report.failed = r.failed;
  } else {
    auto f = Setup(cfg.seed);
    PhaseResult a = RunPhase(f.get(), cfg, cfg.seconds / 2, false, &checker);
    f.reset();
    f = Setup(cfg.seed);
    PhaseResult b = RunPhase(f.get(), cfg, cfg.seconds / 2, true, &checker);
    // The untraced calls' engine time leaves out parsing, which the traced
    // layers include; the traced parse median stands in for it.
    for (auto& [cls, cl] : b.layers) {
      cl.query_us = a.layers[cls].query_us;
      for (double& us : cl.query_us.v) us += cl.parse_us.p50();
    }
    for (const Statement& s : kStatements) {
      b.layers[s.cls].op_ms = ExplainOps(f->db.get(), s.sql);
    }
    ReportLayers(b.layers, measure_classes, plain_classes, b.counters,
                 a.counters, &report);
    Series ra = a.measure_ms, rb = b.measure_ms;
    ra.Append(a.plain_ms);
    rb.Append(b.plain_ms);
    report.Set("measure.refill_ms", a.refill_ms.p50(), "ms");
    report.Set("runtime.shared_cache_evictions",
               static_cast<double>(b.evictions), "count");
    report.Set("runtime.queue_us", b.queue_us.p50(), "us");
    report.Set("catalog.insert_ms", b.write_ms.p50(), "ms");
    report.Set("catalog.load_rows_per_s", f->rows_loaded / f->load_s, "1/s");
    report.Set("loadgen.lag_ms", b.lag_ms.p50(), "ms");
    report.Set("net.server_us", b.server_us.p50(), "us");
    report.Set("net.overhead_us", b.overhead_us.p50(), "us");
    report.Set("trace.overhead_pct", 100.0 * (rb.p50() / ra.p50() - 1), "%");
    std::vector<const SpanLog*> logs;
    size_t spans = 0;
    for (const SpanLog& l : b.logs) {
      logs.push_back(&l);
      spans += l.spans().size();
    }
    WriteSpans(cfg.out_dir + "/spans-dashboard_refresh.jsonl", logs);
    report.Note(Fmt("traced phase: reads=%zu writes=%zu stale-plan "
                    "re-prepares=%lld queue_us p50=%.1f; wire reads=%zu "
                    "server_us p50=%.1f overhead_us p50=%.1f; untraced "
                    "phase: reads=%zu refills=%zu queue_us p50=%.1f; "
                    "spans=%zu; shared measure cache before a write: peak "
                    "%.1f MiB of a %.1f MiB budget",
                    rb.n(), b.write_ms.n(),
                    static_cast<long long>(b.retries), b.queue_us.p50(),
                    b.server_us.n(), b.server_us.p50(), b.overhead_us.p50(),
                    ra.n(), a.refill_ms.n(), a.queue_us.p50(), spans,
                    b.peak_shared_bytes / 1048576.0,
                    f->db->shared_cache().max_bytes() / 1048576.0));
    report.Note(Fmt("text SELECTs retried after a stale-plan error from "
                    "Engine::QueryWith (a program defect): %lld",
                    static_cast<long long>(a.stale_text + b.stale_text)));
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
