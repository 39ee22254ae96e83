#include "data.h"

#include <algorithm>
#include <set>
#include <vector>

#include "bench.h"
#include "common/date.h"
#include "common/string_util.h"

namespace perfbench {

using msql::Row;
using msql::StrCat;
using msql::Value;

int64_t Uniform(std::mt19937_64* rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
}

int64_t HistoryFirstDay() { return msql::DaysFromCivil(2022, 1, 1); }
int64_t HistoryLastDay() { return msql::DaysFromCivil(2024, 12, 31); }

std::string DateLiteral(int64_t days) {
  return "DATE '" + msql::FormatDate(days) + "'";
}

std::string DrawNameList(const char* prefix, int n, int k,
                         std::mt19937_64* rng) {
  std::set<int64_t> picked;
  while (static_cast<int>(picked.size()) < k) {
    picked.insert(Uniform(rng, 0, n - 1));
  }
  std::string out;
  for (int64_t i : picked) {
    if (!out.empty()) out += ", ";
    out += StrCat("'", prefix, i, "'");
  }
  return out;
}

SalesTotals LoadStarSchema(msql::Engine* db, int fact_rows,
                           std::mt19937_64* rng) {
  Require(db->Execute(
              "CREATE TABLE Products (productId INTEGER, category VARCHAR, "
              "brand VARCHAR); "
              "CREATE TABLE Stores (storeId INTEGER, region VARCHAR, "
              "city VARCHAR); "
              "CREATE TABLE Sales (productId INTEGER, storeId INTEGER, "
              "saleDate DATE, units INTEGER, amount INTEGER)"),
          "create star schema");
  std::vector<Row> products;
  for (int p = 0; p < kStarProducts; ++p) {
    products.push_back({Value::Int(p), Value::String(StrCat("cat", p % 12)),
                        Value::String(StrCat("brand", p % 30))});
  }
  Require(db->InsertRows("Products", std::move(products)), "load Products");
  std::vector<Row> stores;
  for (int s = 0; s < kStarStores; ++s) {
    stores.push_back({Value::Int(s), Value::String(StrCat("region", s % 5)),
                      Value::String(StrCat("city", s))});
  }
  Require(db->InsertRows("Stores", std::move(stores)), "load Stores");
  SalesTotals totals;
  totals.rows = fact_rows;
  std::vector<Row> facts;
  facts.reserve(fact_rows);
  const int64_t first = msql::DaysFromCivil(2023, 1, 1);
  for (int i = 0; i < fact_rows; ++i) {
    const int64_t units = Uniform(rng, 1, 20);
    const int64_t amount = units * Uniform(rng, 3, 80);
    totals.units += units;
    totals.amount += amount;
    facts.push_back({Value::Int(Uniform(rng, 0, kStarProducts - 1)),
                     Value::Int(Uniform(rng, 0, kStarStores - 1)),
                     Value::Date(Uniform(rng, first, HistoryLastDay())),
                     Value::Int(units), Value::Int(amount)});
  }
  Require(db->InsertRows("Sales", std::move(facts)), "load Sales");
  // One wide measure view over the join (section 5.3), so every dimension
  // of the dashboard is a dimension of the measures' source.
  Require(db->Execute(
              "CREATE VIEW Mart AS SELECT f.saleDate, "
              "YEAR(f.saleDate) AS saleYear, f.units, f.amount, p.category, "
              "p.brand, s.region, s.city, SUM(f.amount) AS MEASURE revenue, "
              "SUM(f.units) AS MEASURE totalUnits, COUNT(*) AS MEASURE txns "
              "FROM Sales AS f JOIN Products AS p ON f.productId = p.productId "
              "JOIN Stores AS s ON f.storeId = s.storeId"),
          "create Mart");
  return totals;
}

std::string NewOrdersInsert(int rows, int products, int customers,
                            std::mt19937_64* rng) {
  const int64_t first = msql::DaysFromCivil(2025, 1, 1);
  std::string sql = "INSERT INTO Orders VALUES ";
  for (int i = 0; i < rows; ++i) {
    const int64_t rev = Uniform(rng, 2, 500);
    sql += StrCat(i == 0 ? "" : ", ", "('P", Uniform(rng, 0, products - 1),
                  "', 'C", Uniform(rng, 0, customers - 1), "', ",
                  DateLiteral(Uniform(rng, first, first + 364)), ", ", rev,
                  ", ", rev / 2 + 1, ")");
  }
  return sql;
}

std::string NewSalesInsert(int rows, std::mt19937_64* rng, int64_t* amount,
                           int64_t* units) {
  const int64_t first = msql::DaysFromCivil(2025, 1, 1);
  std::string sql = "INSERT INTO Sales VALUES ";
  for (int i = 0; i < rows; ++i) {
    const int64_t u = Uniform(rng, 1, 20);
    const int64_t a = u * Uniform(rng, 3, 80);
    *amount += a;
    *units += u;
    sql += StrCat(i == 0 ? "" : ", ", "(", Uniform(rng, 0, kStarProducts - 1),
                  ", ", Uniform(rng, 0, kStarStores - 1), ", ",
                  DateLiteral(Uniform(rng, first, first + 364)), ", ", u, ", ",
                  a, ")");
  }
  return sql;
}

}  // namespace perfbench
