// Property tests for the TQL evaluator: randomly generated arithmetic /
// comparison expressions are evaluated both by the engine (through a
// dataset round trip) and by a direct C++ oracle; results must agree.
// Metamorphic relations between queries (WHERE / WHERE NOT, LIMIT /
// OFFSET, ARRANGE BY, GROUP BY, JOIN), where one query's answer fixes
// another's. Plus slice-property sweeps against a brute-force slicer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "storage/storage.h"
#include "tql/executor.h"
#include "tql/parser.h"
#include "tsf/dataset.h"
#include "util/rng.h"

namespace dl::tql {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;

/// Dataset with two scalar float tensors a, b whose values per row are
/// known to the oracle.
struct Fixture {
  std::shared_ptr<Dataset> ds;
  std::vector<double> a, b;

  explicit Fixture(uint64_t seed, int n = 25) {
    Rng rng(seed);
    ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
             .MoveValue();
    TensorOptions opts;
    opts.dtype = "float64";
    EXPECT_TRUE(ds->CreateTensor("a", opts).ok());
    EXPECT_TRUE(ds->CreateTensor("b", opts).ok());
    for (int i = 0; i < n; ++i) {
      // Small integers keep float comparisons exact.
      double av = static_cast<double>(rng.UniformInt(-8, 8));
      double bv = static_cast<double>(rng.UniformInt(1, 9));  // b > 0
      a.push_back(av);
      b.push_back(bv);
      EXPECT_TRUE(ds->Append({{"a", Sample::Scalar(av, DType::kFloat64)},
                              {"b", Sample::Scalar(bv, DType::kFloat64)}})
                      .ok());
    }
    EXPECT_TRUE(ds->Flush().ok());
  }
};

/// A random expression over a, b and integer literals, built as both TQL
/// text and a C++ evaluation closure.
struct GenExpr {
  std::string text;
  std::function<double(double, double)> eval;
};

GenExpr RandomExpr(Rng& rng, int depth) {
  if (depth == 0) {
    switch (rng.Uniform(3)) {
      case 0:
        return {"a", [](double a, double) { return a; }};
      case 1:
        return {"b", [](double, double b) { return b; }};
      default: {
        int64_t lit = rng.UniformInt(1, 6);
        return {std::to_string(lit),
                [lit](double, double) { return static_cast<double>(lit); }};
      }
    }
  }
  GenExpr lhs = RandomExpr(rng, depth - 1);
  GenExpr rhs = RandomExpr(rng, depth - 1);
  switch (rng.Uniform(4)) {
    case 0:
      return {"(" + lhs.text + " + " + rhs.text + ")",
              [l = lhs.eval, r = rhs.eval](double a, double b) {
                return l(a, b) + r(a, b);
              }};
    case 1:
      return {"(" + lhs.text + " - " + rhs.text + ")",
              [l = lhs.eval, r = rhs.eval](double a, double b) {
                return l(a, b) - r(a, b);
              }};
    case 2:
      return {"(" + lhs.text + " * " + rhs.text + ")",
              [l = lhs.eval, r = rhs.eval](double a, double b) {
                return l(a, b) * r(a, b);
              }};
    default:
      // Division by the always-positive b avoids div-by-zero divergence.
      return {"(" + lhs.text + " / b)",
              [l = lhs.eval](double a, double b) { return l(a, b) / b; }};
  }
}

class TqlOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TqlOracleTest, RandomWhereExpressionsMatchOracle) {
  Fixture f(GetParam());
  Rng rng(GetParam() * 977 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    GenExpr lhs = RandomExpr(rng, 2);
    GenExpr rhs = RandomExpr(rng, 1);
    const char* ops[] = {">", ">=", "<", "<=", "=", "!="};
    int op = static_cast<int>(rng.Uniform(6));
    std::string where = lhs.text + " " + ops[op] + " " + rhs.text;

    auto view = RunQuery(f.ds, "SELECT a FROM ds WHERE " + where);
    ASSERT_TRUE(view.ok()) << where << ": " << view.status();

    std::vector<uint64_t> expected;
    for (size_t i = 0; i < f.a.size(); ++i) {
      double l = lhs.eval(f.a[i], f.b[i]);
      double r = rhs.eval(f.a[i], f.b[i]);
      bool keep = false;
      switch (op) {
        case 0: keep = l > r; break;
        case 1: keep = l >= r; break;
        case 2: keep = l < r; break;
        case 3: keep = l <= r; break;
        case 4: keep = l == r; break;
        case 5: keep = l != r; break;
      }
      if (keep) expected.push_back(i);
    }
    ASSERT_EQ(view->size(), expected.size()) << "WHERE " << where;
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(view->source_row(k), expected[k]) << "WHERE " << where;
    }
  }
}

TEST_P(TqlOracleTest, RandomProjectionsMatchOracle) {
  Fixture f(GetParam() ^ 0xABCD);
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    GenExpr e = RandomExpr(rng, 3);
    auto view = RunQuery(f.ds, "SELECT " + e.text + " AS v FROM ds");
    ASSERT_TRUE(view.ok()) << e.text << ": " << view.status();
    ASSERT_EQ(view->size(), f.a.size());
    for (size_t i = 0; i < f.a.size(); ++i) {
      auto v = view->Cell(i, "v");
      ASSERT_TRUE(v.ok());
      EXPECT_NEAR(v->array().AsScalar(), e.eval(f.a[i], f.b[i]), 1e-9)
          << e.text << " at row " << i;
    }
  }
}

TEST_P(TqlOracleTest, OrderByMatchesOracleSort) {
  Fixture f(GetParam() ^ 0x5151);
  Rng rng(GetParam() * 131 + 3);
  GenExpr key = RandomExpr(rng, 2);
  auto view =
      RunQuery(f.ds, "SELECT a FROM ds ORDER BY " + key.text + " DESC");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), f.a.size());
  double prev = HUGE_VAL;
  for (size_t i = 0; i < view->size(); ++i) {
    uint64_t row = view->source_row(i);
    double k = key.eval(f.a[row], f.b[row]);
    EXPECT_LE(k, prev + 1e-9) << "key not non-increasing at " << i;
    prev = k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TqlOracleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Metamorphic relations between queries
// ---------------------------------------------------------------------------

using Cells = std::vector<std::vector<std::string>>;

/// Every cell of the query's result, row by row, rendered as text.
Cells RunCells(const std::shared_ptr<Dataset>& ds, const std::string& query,
               const QueryOptions& options = {}) {
  auto view = RunQuery(ds, query, options);
  EXPECT_TRUE(view.ok()) << query << ": " << view.status();
  if (!view.ok()) return {};
  Cells out;
  for (size_t i = 0; i < view->size(); ++i) {
    std::vector<std::string> row;
    for (const auto& column : view->columns()) {
      auto v = view->Cell(i, column);
      EXPECT_TRUE(v.ok()) << query << ": " << v.status();
      row.push_back(v.ok() ? v->ToString() : "<error>");
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// A random comparison over a and b.
std::string RandomPredicate(Rng& rng) {
  const char* ops[] = {">", ">=", "<", "<=", "=", "!="};
  std::string lhs = RandomExpr(rng, 2).text;
  std::string rhs = RandomExpr(rng, 1).text;
  return lhs + " " + ops[rng.Uniform(6)] + " " + rhs;
}

/// A seeded left fixture (`FROM l`) joined to a smaller seeded right one
/// registered as `r`, on b (1..9), so most left rows match a few right rows.
struct JoinFixture {
  Fixture left, right;
  QueryOptions options;
  explicit JoinFixture(uint64_t seed) : left(seed), right(seed ^ 0x77, 10) {
    options.datasets["r"] = right.ds;
  }
};

class TqlMetamorphicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TqlMetamorphicTest, WhereAndWhereNotPartitionTheRows) {
  Fixture f(GetParam());
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    std::string p = RandomPredicate(rng);
    auto yes = RunQuery(f.ds, "SELECT a FROM ds WHERE " + p);
    auto no = RunQuery(f.ds, "SELECT a FROM ds WHERE NOT (" + p + ")");
    ASSERT_TRUE(yes.ok()) << p << ": " << yes.status();
    ASSERT_TRUE(no.ok()) << p << ": " << no.status();
    std::vector<int> seen(f.a.size(), 0);
    for (uint64_t row : yes->indices()) ++seen[row];
    for (uint64_t row : no->indices()) ++seen[row];
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "row " << i << " under WHERE " << p;
    }
  }
}

TEST_P(TqlMetamorphicTest, LimitOffsetIsASliceOfTheUnlimitedQuery) {
  JoinFixture j(GetParam());
  const std::vector<std::string> queries = {
      "SELECT a, b FROM ds",
      "SELECT a, b FROM ds ORDER BY a DESC",
      "SELECT b, COUNT() AS n, SUM(a) AS s FROM ds GROUP BY b",
      "SELECT l.a AS la, r.a AS ra FROM l JOIN r ON l.b = r.b",
  };
  const std::pair<size_t, size_t> cuts[] = {
      {0, 0}, {3, 0}, {4, 2}, {5, 100}, {100, 1}};
  for (const std::string& q : queries) {
    Cells all = RunCells(j.left.ds, q, j.options);
    for (auto [limit, offset] : cuts) {
      std::string cut = " LIMIT " + std::to_string(limit) + " OFFSET " +
                        std::to_string(offset);
      size_t begin = std::min(offset, all.size());
      size_t end = std::min(offset + limit, all.size());
      Cells expected(all.begin() + begin, all.begin() + end);
      EXPECT_EQ(RunCells(j.left.ds, q + cut, j.options), expected) << q + cut;
    }
  }
}

TEST_P(TqlMetamorphicTest, ArrangeByRoundRobinsTheUnarrangedRows) {
  // ARRANGE BY k returns the rows of the same query without it, bucketed
  // by k in first-seen order and interleaved one per bucket per round.
  // Column 0 of each query is k.
  JoinFixture j(GetParam());
  const std::pair<std::string, std::string> queries[] = {
      {"SELECT b, a FROM ds WHERE a != 0", "b"},
      {"SELECT l.a AS k, r.a AS ra FROM l JOIN r ON l.b = r.b", "l.a"},
  };
  for (const auto& [q, key] : queries) {
    Cells plain = RunCells(j.left.ds, q, j.options);
    Cells arranged =
        RunCells(j.left.ds, q + " ARRANGE BY " + key, j.options);
    std::map<std::string, Cells> buckets;
    std::vector<std::string> order;
    for (const auto& row : plain) {
      if (buckets[row[0]].empty()) order.push_back(row[0]);
      buckets[row[0]].push_back(row);
    }
    Cells expected;
    for (size_t round = 0; expected.size() < plain.size(); ++round) {
      for (const auto& k : order) {
        if (round < buckets[k].size()) expected.push_back(buckets[k][round]);
      }
    }
    EXPECT_EQ(arranged, expected) << q << " ARRANGE BY " << key;
    // Hence a permutation of the unarranged rows.
    std::sort(arranged.begin(), arranged.end());
    std::sort(plain.begin(), plain.end());
    EXPECT_EQ(arranged, plain) << q;
  }
}

TEST_P(TqlMetamorphicTest, GroupCountsSumToTheFilteredRowCount) {
  JoinFixture j(GetParam());
  Rng rng(GetParam() * 104729 + 5);
  for (int trial = 0; trial < 5; ++trial) {
    std::string p = RandomPredicate(rng);
    auto rows = RunQuery(j.left.ds, "SELECT a FROM ds WHERE " + p);
    ASSERT_TRUE(rows.ok()) << p << ": " << rows.status();
    Cells groups = RunCells(
        j.left.ds, "SELECT b, COUNT() AS n FROM ds WHERE " + p + " GROUP BY b");
    double total = 0;
    for (const auto& g : groups) total += std::stod(g[1]);
    EXPECT_EQ(total, static_cast<double>(rows->size())) << "WHERE " << p;
  }
  // The same over a JOIN: one count per right-side key.
  const std::string join = "FROM l JOIN r ON l.b = r.b";
  Cells pairs = RunCells(j.left.ds, "SELECT l.a AS la " + join, j.options);
  Cells groups = RunCells(j.left.ds,
                          "SELECT r.b AS k, COUNT() AS n " + join +
                              " GROUP BY r.b",
                          j.options);
  double total = 0;
  for (const auto& g : groups) total += std::stod(g[1]);
  EXPECT_EQ(total, static_cast<double>(pairs.size()));
}

TEST_P(TqlMetamorphicTest, GroupOrderDescIsTheReverseOfAsc) {
  // The group keys are distinct, so the two orders are strict.
  Fixture f(GetParam());
  const std::string q = "SELECT b, COUNT() AS n, MIN(a) AS lo FROM ds "
                        "GROUP BY b ORDER BY b";
  Cells asc = RunCells(f.ds, q + " ASC");
  Cells desc = RunCells(f.ds, q + " DESC");
  ASSERT_GT(asc.size(), 1u);
  std::reverse(desc.begin(), desc.end());
  EXPECT_EQ(desc, asc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TqlMetamorphicTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Slice property sweep vs brute force
// ---------------------------------------------------------------------------

class SlicePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlicePropertyTest, RandomSlicesMatchBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    // Random 2-d or 3-d array.
    size_t nd = 2 + rng.Uniform(2);
    std::vector<uint64_t> shape(nd);
    uint64_t elems = 1;
    for (auto& d : shape) {
      d = 1 + rng.Uniform(7);
      elems *= d;
    }
    std::vector<double> data(elems);
    for (size_t i = 0; i < elems; ++i) data[i] = static_cast<double>(i);
    NdArray arr(shape, data);

    // Random slice specs (mix of indices and ranges with steps).
    std::vector<SliceSpec> specs;
    size_t nspecs = 1 + rng.Uniform(nd);
    for (size_t d = 0; d < nspecs; ++d) {
      SliceSpec spec;
      if (rng.NextBool(0.3)) {
        spec.is_index = true;
        spec.index = rng.UniformInt(-static_cast<int64_t>(shape[d]),
                                    static_cast<int64_t>(shape[d]) - 1);
      } else {
        if (rng.NextBool()) {
          spec.has_start = true;
          spec.start = rng.UniformInt(0, static_cast<int64_t>(shape[d]));
        }
        if (rng.NextBool()) {
          spec.has_stop = true;
          spec.stop = rng.UniformInt(0, static_cast<int64_t>(shape[d]) + 2);
        }
        if (rng.NextBool(0.3)) {
          spec.has_step = true;
          spec.step = rng.UniformInt(1, 3);
        }
      }
      specs.push_back(spec);
    }
    auto sliced = SliceArray(arr, specs);
    ASSERT_TRUE(sliced.ok()) << sliced.status();

    // Brute force: walk every input coordinate; keep those selected, in
    // row-major output order (the slicer's order by construction).
    std::vector<double> expected;
    std::function<void(size_t, uint64_t)> walk = [&](size_t d,
                                                     uint64_t offset) {
      if (d == nd) {
        expected.push_back(arr.data()[offset]);
        return;
      }
      uint64_t stride = 1;
      for (size_t k = d + 1; k < nd; ++k) stride *= shape[k];
      if (d < specs.size()) {
        const SliceSpec& s = specs[d];
        if (s.is_index) {
          int64_t idx = s.index < 0
                            ? s.index + static_cast<int64_t>(shape[d])
                            : s.index;
          walk(d + 1, offset + static_cast<uint64_t>(idx) * stride);
          return;
        }
        int64_t lo = s.has_start ? std::min<int64_t>(s.start, shape[d]) : 0;
        int64_t hi = s.has_stop ? std::min<int64_t>(s.stop, shape[d])
                                : static_cast<int64_t>(shape[d]);
        int64_t step = s.has_step ? s.step : 1;
        for (int64_t i = lo; i < hi; i += step) {
          walk(d + 1, offset + static_cast<uint64_t>(i) * stride);
        }
        return;
      }
      for (uint64_t i = 0; i < shape[d]; ++i) {
        walk(d + 1, offset + i * stride);
      }
    };
    walk(0, 0);
    EXPECT_EQ(sliced->data(), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace dl::tql
