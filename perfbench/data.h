#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

// Seeded data for the benchmark workloads. Orders, Customers and their
// measure views EO and EC (the paper's running example) come from
// bench/workload.h; this file adds the star schema published as one wide
// measure view (section 5.3), the writers' INSERT batches and the helpers
// that draw statement literals. History spans 2022-2024; rows that writers
// append during a run are dated 2025, so every statement that reads only
// history returns the same rows before and after a write while the write
// still invalidates every cache.

#include <cstdint>
#include <random>
#include <string>

#include "engine/engine.h"

namespace perfbench {

// Totals of the Sales rows loaded, as the generator wrote them.
struct SalesTotals {
  int64_t rows = 0;
  int64_t amount = 0;
  int64_t units = 0;
};

// Products, Stores and the Sales fact table (2023-2024), plus the wide
// measure view Mart (revenue, totalUnits, txns) over their join.
SalesTotals LoadStarSchema(msql::Engine* db, int fact_rows,
                           std::mt19937_64* rng);
inline constexpr int kStarProducts = 200;
inline constexpr int kStarStores = 40;

// One INSERT statement appending `rows` new orders dated 2025.
std::string NewOrdersInsert(int rows, int products, int customers,
                            std::mt19937_64* rng);

// One INSERT statement appending `rows` new 2025 sales; adds the batch's
// amount and unit totals to *amount and *units.
std::string NewSalesInsert(int rows, std::mt19937_64* rng, int64_t* amount,
                           int64_t* units);

// Helpers for drawing statement literals.
std::string DateLiteral(int64_t days);  // DATE 'YYYY-MM-DD'
int64_t HistoryFirstDay();              // 2022-01-01
int64_t HistoryLastDay();               // 2024-12-31
int64_t Uniform(std::mt19937_64* rng, int64_t lo, int64_t hi);  // inclusive

// `k` distinct names "<prefix><i>" with i in [0, n), as a SQL IN list body
// ('P3', 'P17', ...), sorted for stable text.
std::string DrawNameList(const char* prefix, int n, int k,
                         std::mt19937_64* rng);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
