#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark (see README.md): clocks,
// sample statistics, the in-memory span recorder of the traced run, result
// comparison, and the metric report every workload fills in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans
};

// ---------------------------------------------------------------------------
// Sample statistics.

// Quantile q in (0, 1) of `v` (Harrell-Davis estimate); 0 for no samples.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The tail percentile a workload reports for `expected` samples per run:
// the highest of a fixed ladder that leaves at least ten samples beyond
// it. Workloads fix the expected count, so the percentile is the same on
// every run of a workload.
double TailQuantileFor(size_t expected);

// A latency series with its median, its tail at a fixed quantile, and the
// sample count, as printed in the report. Figures are taken over the whole
// run: when the host's speed changes during a run, a whole-run median moves
// with the share of the run spent at each speed, where a median of
// per-block medians would jump to one speed or the other.
struct Series {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  void Append(const Series& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  size_t n() const { return v.size(); }
  double p50() const { return Median(v); }
  double at(double q) const { return Quantile(v, q); }
};

// ---------------------------------------------------------------------------
// Result checking.

// Canonical text of a result: rows rendered and sorted, doubles printed to
// 12 significant digits so that two evaluation orders of the same
// arithmetic compare equal.
std::string Canonical(const msql::ResultSet& rs);

// Counts checked comparisons and mismatches; prints the first few
// mismatches to stderr.
class Checker {
 public:
  void Compare(const std::string& what, const msql::ResultSet& a,
               const msql::ResultSet& b);
  void Expect(bool ok, const std::string& what);
  int64_t checked() const { return checked_.load(); }
  int64_t mismatches() const { return mismatches_.load(); }

 private:
  void Fail(const std::string& what);
  std::atomic<int64_t> checked_{0};
  std::atomic<int64_t> mismatches_{0};
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into the program's
// public functions. Each thread owns a SpanLog; logs are merged and written
// out when the run ends.

struct Span {
  uint64_t stmt = 0;     // statement id shared by the spans of one statement
  int32_t id = 0;        // index within its log
  int32_t parent = -1;   // index of the parent span in the same log
  std::string name;
  int64_t start_ns = 0;  // relative to the log's epoch
  int64_t end_ns = 0;
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  // Opens a span under `parent` (-1 for a root) and returns its index.
  int Open(uint64_t stmt, const std::string& name, int parent = -1);
  void Close(int id);
  // Records a span with known bounds (e.g. a server-side time carried back
  // on a result, laid out inside its parent).
  int Add(uint64_t stmt, const std::string& name, int parent,
          Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the part covered by direct children.
  double SelfUs(int id) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t stmt, const std::string& name,
             int parent = -1)
      : log_(log), id_(log != nullptr ? log->Open(stmt, name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Writes every span of `logs` as one JSON object per line.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// Per-statement engine counters, summed over a phase (ResultSet::stats()).

struct CounterSums {
  int64_t queries = 0;
  double measure_evals = 0, memo_hits = 0, builds = 0, probes = 0, scans = 0,
         inline_evals = 0, parallel_tasks = 0, shared_hits = 0,
         shared_misses = 0, vectorized_batches = 0, row_fallbacks = 0,
         bytes_charged = 0;
  int64_t plan_hits = 0, plan_lookups = 0;
  void Add(const msql::QueryStats& s);
  void Merge(const CounterSums& o);
};

// Per-operator self time parsed from EXPLAIN ANALYZE text, keyed by the
// node's first word (Scan, Project, Filter, Aggregate, Join, Sort, ...).
std::map<std::string, double> ExplainSelfMs(const std::string& plan_text);

// The plan text of an EXPLAIN ANALYZE result (one "plan" column).
std::string PlanText(const msql::ResultSet& rs);

// ---------------------------------------------------------------------------
// Report: metric name -> (value, unit), plus free-form notes printed before
// the final JSON line.

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Process high-water resident memory in MB.
double PeakRssMb();

// Set-ups timed per run for setup_s; a set-up takes well under a second,
// so a median over several keeps one slow one from moving the figure.
inline constexpr int kSetups = 9;

// Builds `times` fresh set-ups with `make` and returns the median of their
// wall seconds. Each previous set-up is torn down before the next is
// timed; the last one is kept in *keep.
template <typename T, typename Make>
double MedianSetupSeconds(int times, std::unique_ptr<T>* keep, Make&& make) {
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    keep->reset();
    const auto t0 = Clock::now();
    *keep = make();
    s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return Median(s);
}

// Aborts the run (no result line) when a set-up step fails: the workload
// is meant to have no failing operations, so a failure here is a broken
// program or benchmark, not a measurement.
void Require(const msql::Status& st, const std::string& what);

// Formats like printf into a std::string.
std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workload entry points (adhoc.cc, dashboard.cc).
Report RunAdhocMeasures(const RunConfig& cfg);
Report RunDashboardRefresh(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
