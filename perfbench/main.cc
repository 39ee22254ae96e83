// The repository benchmark's binary. Runs one workload for a fixed
// time from a seed and prints a report, a provenance line and, last, one
// JSON result line:
//
//   perfbench --workload adhoc_measures|dashboard_refresh
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run (see README.md).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "layers.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},        {"qps", "1/s"},
      {"read_p50_ms", "ms"},   {"read_tail_ms", "ms"},
      {"measure_p50_ms", "ms"}, {"plain_p50_ms", "ms"},
      {"write_p50_ms", "ms"},  {"write_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// JSON string body: escapes quotes, backslashes and control characters.
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown", digest = "unknown";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || cfg.seconds <= 0) {
    return Usage("--seed and a positive --seconds are required");
  }
  Report report;
  if (cfg.workload == "adhoc_measures") {
    report = RunAdhocMeasures(cfg);
  } else if (cfg.workload == "dashboard_refresh") {
    report = RunDashboardRefresh(cfg);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const auto& wanted = cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    auto it = report.metrics.find(name);
    const double value = it == report.metrics.end() ? 0 : it->second.value;
    std::printf("# metric %-36s %16.6f %s\n", name.c_str(), value,
                unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(value) +
               ", \"unit\": \"" + Escape(unit) + "\"}";
  }
  std::printf(
      "{\"provenance\": {\"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}}\n",
      Escape(commit).c_str(), Escape(digest).c_str(),
      Escape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, Escape(__VERSION__).c_str(),
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      Number(cfg.seconds).c_str(), cfg.trace ? 1 : 0);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct && report.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.attempted)),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
