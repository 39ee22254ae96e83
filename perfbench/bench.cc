#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Continued fraction of the regularized incomplete beta function (modified
// Lentz), valid for x < (a + 1) / (a + b + 2).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1, d = 1 - (a + b) * x / (a + 1);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1 / d;
  double h = d;
  for (int m = 1; m < 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1) < 1e-14) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double x, double a, double b) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * BetaContinuedFraction(a, b, x) / a;
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 1) return v[0];
  // Harrell-Davis estimator: a Beta((n+1)q, (n+1)(1-q))-weighted average of
  // all order statistics. A workload mixes statement classes of different
  // cost, so a quantile can fall in a gap between two classes; the single
  // order statistic there jumps between the classes' edges from run to
  // run, while this weighted average moves smoothly.
  const double a = (n + 1) * q, b = (n + 1) * (1 - q);
  double estimate = 0, prev = 0;
  for (size_t i = 1; i <= n; ++i) {
    const double cur = RegularizedBeta(static_cast<double>(i) / n, a, b);
    estimate += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return estimate;
}

double TailQuantileFor(size_t expected) {
  static const double kLadder[] = {0.999, 0.99, 0.975, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (static_cast<double>(expected) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::string Canonical(const msql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.num_rows());
  for (const msql::Row& row : rs.rows()) {
    std::string line;
    for (const msql::Value& v : row) {
      if (v.kind() == msql::TypeKind::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v.double_val());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

void Checker::Compare(const std::string& what, const msql::ResultSet& a,
                      const msql::ResultSet& b) {
  ++checked_;
  const std::string ca = Canonical(a), cb = Canonical(b);
  if (ca != cb || a.num_rows() == 0) {
    Fail(what + (a.num_rows() == 0 ? ": empty result\n" : ":\n") +
         ca.substr(0, 400) + "--- vs ---\n" + cb.substr(0, 400));
  }
}

void Checker::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) Fail(what);
}

void Checker::Fail(const std::string& what) {
  if (mismatches_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
  }
}

int SpanLog::Open(uint64_t stmt, const std::string& name, int parent) {
  const auto now = Clock::now();
  return Add(stmt, name, parent, now, now);
}

void SpanLog::Close(int id) { spans_[id].end_ns = Ns(Clock::now()); }

int SpanLog::Add(uint64_t stmt, const std::string& name, int parent,
                 Clock::time_point start, Clock::time_point end) {
  Span s;
  s.stmt = stmt;
  s.id = static_cast<int32_t>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  spans_.push_back(std::move(s));
  children_.emplace_back();
  if (parent >= 0) children_[parent].push_back(spans_.back().id);
  return spans_.back().id;
}

double SpanLog::SelfUs(int id) const {
  double self = spans_[id].dur_us();
  for (int c : children_[id]) self -= spans_[c].dur_us();
  return self;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  for (size_t l = 0; l < logs.size(); ++l) {
    for (const Span& s : logs[l]->spans()) {
      out << "{\"log\":" << l << ",\"stmt\":" << s.stmt << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
}

void CounterSums::Add(const msql::QueryStats& s) {
  ++queries;
  measure_evals += static_cast<double>(s.measure_evals);
  memo_hits += static_cast<double>(s.measure_cache_hits);
  builds += static_cast<double>(s.measure_grouped_builds);
  probes += static_cast<double>(s.measure_grouped_probes);
  scans += static_cast<double>(s.measure_source_scans);
  inline_evals += static_cast<double>(s.measure_inline_evals);
  parallel_tasks += static_cast<double>(s.measure_parallel_tasks);
  shared_hits += static_cast<double>(s.shared_cache_hits);
  shared_misses += static_cast<double>(s.shared_cache_misses);
  vectorized_batches += static_cast<double>(s.exec_vectorized_batches);
  row_fallbacks += static_cast<double>(s.exec_row_fallbacks);
  bytes_charged += static_cast<double>(s.bytes_charged);
  using Outcome = msql::QueryStats::PlanCacheOutcome;
  if (s.plan_cache != Outcome::kOff) ++plan_lookups;
  if (s.plan_cache == Outcome::kHit) ++plan_hits;
}

void CounterSums::Merge(const CounterSums& o) {
  queries += o.queries;
  measure_evals += o.measure_evals;
  memo_hits += o.memo_hits;
  builds += o.builds;
  probes += o.probes;
  scans += o.scans;
  inline_evals += o.inline_evals;
  parallel_tasks += o.parallel_tasks;
  shared_hits += o.shared_hits;
  shared_misses += o.shared_misses;
  vectorized_batches += o.vectorized_batches;
  row_fallbacks += o.row_fallbacks;
  bytes_charged += o.bytes_charged;
  plan_hits += o.plan_hits;
  plan_lookups += o.plan_lookups;
}

std::string PlanText(const msql::ResultSet& rs) {
  std::string text;
  for (const msql::Row& row : rs.rows()) {
    if (!row.empty()) text += row[0].ToString() + "\n";
  }
  return text;
}

std::map<std::string, double> ExplainSelfMs(const std::string& plan_text) {
  // Node lines look like "<indent><Kind> ... (actual time=1.234ms ...)";
  // a node's time includes its subtree, so self time subtracts the times
  // of the nodes one level deeper until the next node at its own level.
  struct Node {
    int depth;
    std::string kind;
    double ms;
  };
  std::vector<Node> nodes;
  std::istringstream in(plan_text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("(actual time=");
    if (at == std::string::npos) continue;
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    const size_t word_end = line.find_first_of(" ([", first);
    Node n;
    n.depth = static_cast<int>(first / 2);
    n.kind = line.substr(first, word_end - first);
    n.ms = std::atof(line.c_str() + at + 13);
    nodes.push_back(std::move(n));
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < nodes.size(); ++i) {
    double ms = nodes[i].ms;
    for (size_t j = i + 1; j < nodes.size() && nodes[j].depth > nodes[i].depth;
         ++j) {
      if (nodes[j].depth == nodes[i].depth + 1) ms -= nodes[j].ms;
    }
    self[nodes[i].kind] += std::max(0.0, ms);
  }
  return self;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Require(const msql::Status& st, const std::string& what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 st.ToString().c_str());
    std::exit(2);
  }
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
