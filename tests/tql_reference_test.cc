// The TQL engine against the test-only reference evaluator
// (tests/reference_tql.h), the double evaluator it replaced. Random
// expressions over array tensors of every dtype (reductions, slices with
// steps and indices, comparisons, arithmetic) are evaluated per row by
// both and compared bit for bit. Whole queries (WHERE, ORDER BY, GROUP BY,
// projections and their stored bytes) are checked against results built
// from the reference's values. Also pins where the two are meant to differ
// (exact integer sums past 2^53), and that a pinned QueryAt(c) equals the
// same query over a copy materialized at commit c.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/deeplake.h"
#include "reference_tql.h"
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
using tsf::TensorShape;

constexpr DType kAllDTypes[] = {
    DType::kBool,   DType::kUInt8,  DType::kInt8,    DType::kUInt16,
    DType::kInt16,  DType::kUInt32, DType::kInt32,   DType::kUInt64,
    DType::kInt64,  DType::kFloat32, DType::kFloat64};

/// Bit patterns of the doubles, so NaNs and signed zeros compare exactly.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out(values.size());
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
  }
  return out;
}

/// Empty when the engine's value equals the reference's bit for bit;
/// otherwise what differs.
std::string Diff(const Value& got, const reference::Value& want) {
  if (got.kind() != static_cast<Value::Kind>(want.kind())) {
    return "kind: " + got.ToString() + " vs " + want.ToString();
  }
  if (got.is_string() && got.str() != want.str()) {
    return "string: " + got.str() + " vs " + want.str();
  }
  if (got.is_array()) {
    if (got.array().shape() != want.array().shape()) {
      return "shape: " + got.ToString() + " vs " + want.ToString();
    }
    if (Bits(got.array().data()) != Bits(want.array().data())) {
      return "elements of " + got.ToString();
    }
  }
  return "";
}

/// A random element of `dtype`. The 64-bit integer dtypes stay within
/// ±2^45, so sums over a fixture's arrays are exact in double and the
/// exact integer sum equals the reference's double sum.
double RandomElement(Rng& rng, DType dtype) {
  switch (dtype) {
    case DType::kBool:
      return static_cast<double>(rng.Uniform(2));
    case DType::kUInt8:
      return static_cast<double>(rng.Uniform(256));
    case DType::kInt8:
      return static_cast<double>(rng.UniformInt(-128, 127));
    case DType::kUInt16:
      return static_cast<double>(rng.Uniform(65536));
    case DType::kInt16:
      return static_cast<double>(rng.UniformInt(-32768, 32767));
    case DType::kUInt32:
      return static_cast<double>(rng.Uniform(uint64_t{1} << 32));
    case DType::kInt32:
      return static_cast<double>(rng.UniformInt(INT32_MIN, INT32_MAX));
    case DType::kUInt64:
      return static_cast<double>(rng.Uniform(uint64_t{1} << 45));
    case DType::kInt64:
      return static_cast<double>(
          rng.UniformInt(-(int64_t{1} << 45), int64_t{1} << 45));
    case DType::kFloat32:
    case DType::kFloat64:
      break;
  }
  if (rng.NextBool(0.02)) return std::nan("");
  double v = static_cast<double>(rng.UniformInt(-4000, 4000)) / 7.0;
  return dtype == DType::kFloat32 ? static_cast<float>(v) : v;
}

/// Tensor name of the array tensor of `dtype`.
std::string TensorOf(DType dtype) {
  return "t_" + std::string(tsf::DTypeName(dtype));
}

/// A dataset with one rank-3 array tensor per dtype (each its own fixed
/// shape), and float64 scalars a (-8..8) and b (1..9), as the oracle suite
/// in tql_property_test.cc builds them.
struct TypedFixture {
  std::shared_ptr<Dataset> ds;
  std::map<std::string, std::vector<uint64_t>> shapes;
  uint64_t rows;

  explicit TypedFixture(uint64_t seed, uint64_t n = 12) : rows(n) {
    Rng rng(seed);
    ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
             .MoveValue();
    TensorOptions scalar;
    scalar.dtype = "float64";
    EXPECT_TRUE(ds->CreateTensor("a", scalar).ok());
    EXPECT_TRUE(ds->CreateTensor("b", scalar).ok());
    for (DType dtype : kAllDTypes) {
      TensorOptions opts;
      opts.dtype = std::string(tsf::DTypeName(dtype));
      EXPECT_TRUE(ds->CreateTensor(TensorOf(dtype), opts).ok());
      shapes[TensorOf(dtype)] = {2 + rng.Uniform(4), 2 + rng.Uniform(4),
                                 1 + rng.Uniform(3)};
    }
    for (uint64_t r = 0; r < n; ++r) {
      std::map<std::string, Sample> row;
      row["a"] = Sample::Scalar(rng.UniformInt(-8, 8), DType::kFloat64);
      row["b"] = Sample::Scalar(rng.UniformInt(1, 9), DType::kFloat64);
      for (DType dtype : kAllDTypes) {
        const std::vector<uint64_t>& shape = shapes[TensorOf(dtype)];
        uint64_t elems = shape[0] * shape[1] * shape[2];
        size_t es = tsf::DTypeSize(dtype);
        ByteBuffer bytes(elems * es);
        for (uint64_t i = 0; i < elems; ++i) {
          Sample::StoreValue(bytes.data() + i * es, RandomElement(rng, dtype),
                             dtype);
        }
        row[TensorOf(dtype)] =
            Sample(dtype, TensorShape(shape), Slice(std::move(bytes)));
      }
      EXPECT_TRUE(ds->Append(row).ok());
    }
    EXPECT_TRUE(ds->Flush().ok());
  }
};

/// Random TQL over a TypedFixture: array terms (columns, slices, elementwise
/// arithmetic and comparisons) and scalar terms (reductions of array terms,
/// the scalars a and b, literals and arithmetic over them).
class ExprGen {
 public:
  ExprGen(Rng& rng, const TypedFixture& f) : rng_(rng), f_(f) {}

  std::string Column() {
    size_t pick = rng_.Uniform(f_.shapes.size());
    auto it = f_.shapes.begin();
    std::advance(it, pick);
    return it->first;
  }

  /// `[specs]` for a rank-3 array shaped `shape`: 1 to 3 specs, each an
  /// index (possibly negative) or start:stop:step with parts left out.
  std::string Slice(const std::vector<uint64_t>& shape) {
    size_t n = 1 + rng_.Uniform(shape.size());
    std::string out = "[";
    for (size_t d = 0; d < n; ++d) {
      if (d) out += ", ";
      int64_t dim = static_cast<int64_t>(shape[d]);
      if (rng_.NextBool(0.3)) {
        out += std::to_string(rng_.UniformInt(-dim, dim - 1));
        continue;
      }
      if (rng_.NextBool(0.7)) out += std::to_string(rng_.UniformInt(0, dim));
      out += ":";
      if (rng_.NextBool(0.7)) {
        out += std::to_string(rng_.UniformInt(0, dim + 1));
      }
      if (rng_.NextBool(0.4)) {
        out += ":" + std::to_string(rng_.UniformInt(1, 3));
      }
    }
    return out + "]";
  }

  std::string Literal() {
    if (rng_.NextBool(0.2)) return std::to_string(rng_.UniformInt(1, 9)) + ".5";
    return std::to_string(rng_.UniformInt(-3, 9));
  }

  /// An array-valued expression; `*root` is set to the column it reads.
  std::string Array(std::string* root = nullptr) {
    std::string col = Column();
    if (root != nullptr) *root = col;
    std::string base =
        rng_.NextBool(0.5) ? col + Slice(f_.shapes.at(col)) : col;
    const char* arith[] = {"+", "-", "*", "/", "%"};
    const char* cmp[] = {">", ">=", "<", "<=", "=", "!="};
    switch (rng_.Uniform(8)) {
      case 0:
      case 1:
        return base;
      case 2:
        return "(" + base + " " + arith[rng_.Uniform(5)] + " " + Literal() +
               ")";
      case 3:
        return "(" + Literal() + " " + arith[rng_.Uniform(5)] + " " + base +
               ")";
      case 4:
        return rng_.NextBool() ? "-" + base : "ABS(" + base + ")";
      case 5:
        return "CLIP(" + base + ", " + std::to_string(rng_.UniformInt(-5, 2)) +
               ", " + std::to_string(rng_.UniformInt(3, 90)) + ")";
      case 6:
        return "(" + base + " " + cmp[rng_.Uniform(6)] + " " + Literal() + ")";
      default:
        return "(" + base + " " + arith[rng_.Uniform(3)] + " " + base + ")";
    }
  }

  std::string Scalar(int depth) {
    if (depth == 0) {
      const char* reduce[] = {"SUM", "MEAN", "MIN", "MAX",
                              "STD", "L2",   "ANY", "ALL"};
      switch (rng_.Uniform(4)) {
        case 0:
          return rng_.NextBool() ? "a" : "b";
        case 1:
          return Literal();
        default:
          return std::string(reduce[rng_.Uniform(8)]) + "(" + Array() + ")";
      }
    }
    const char* arith[] = {"+", "-", "*", "/"};
    return "(" + Scalar(depth - 1) + " " + arith[rng_.Uniform(4)] + " " +
           Scalar(depth - 1) + ")";
  }

  std::string Predicate() {
    const char* cmp[] = {">", ">=", "<", "<=", "=", "!="};
    std::string p = Scalar(1) + " " + cmp[rng_.Uniform(6)] + " " + Scalar(0);
    switch (rng_.Uniform(4)) {
      case 0:
        return "NOT (" + p + ")";
      case 1:
        return p + (rng_.NextBool() ? " AND " : " OR ") + Scalar(0) + " > " +
               Literal();
      default:
        return p;
    }
  }

 private:
  Rng& rng_;
  const TypedFixture& f_;
};

/// The reference's value of `expr` at every row (a failed row is null).
std::vector<reference::Value> ReferenceValues(const TypedFixture& f,
                                              const Expr& expr) {
  std::vector<reference::Value> out;
  for (uint64_t r = 0; r < f.rows; ++r) {
    reference::EvalContext ctx(f.ds.get(), r);
    auto v = reference::Evaluate(expr, ctx);
    EXPECT_TRUE(v.ok()) << ExprToString(expr) << ": " << v.status();
    out.push_back(v.ok() ? *v : reference::Value());
  }
  return out;
}

ExprPtr Parse(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status();
  return e.ok() ? *e : Expr::Number_(0);
}

class TqlReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TqlReferenceTest, RowValuesMatchTheReferenceBitForBit) {
  TypedFixture f(GetParam());
  Rng rng(GetParam() * 6151 + 17);
  ExprGen gen(rng, f);
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = trial % 2 == 0 ? gen.Array() : gen.Scalar(2);
    ExprPtr expr = Parse(text);
    std::vector<reference::Value> want = ReferenceValues(f, *expr);
    for (uint64_t r = 0; r < f.rows; ++r) {
      EvalContext ctx(f.ds.get(), r);
      auto got = Evaluate(*expr, ctx);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status();
      EXPECT_EQ(Diff(*got, want[r]), "") << text << " at row " << r;
    }
  }
}

TEST_P(TqlReferenceTest, EveryDTypeReducesLikeTheReference) {
  TypedFixture f(GetParam() ^ 0x77);
  for (DType dtype : kAllDTypes) {
    const std::string t = TensorOf(dtype);
    for (const char* fn : {"SUM", "MEAN", "MIN", "MAX", "STD", "L2", "ANY",
                           "ALL"}) {
      for (const std::string& arg : {t, t + "[1:, ::2]", t + "[-1, :, 0]",
                                     t + "[0:1, 1:3:2]", t + "[5:1]"}) {
        std::string text = std::string(fn) + "(" + arg + ")";
        ExprPtr expr = Parse(text);
        std::vector<reference::Value> want = ReferenceValues(f, *expr);
        for (uint64_t r = 0; r < f.rows; ++r) {
          EvalContext ctx(f.ds.get(), r);
          auto got = Evaluate(*expr, ctx);
          ASSERT_TRUE(got.ok()) << text << ": " << got.status();
          EXPECT_EQ(Diff(*got, want[r]), "") << text << " at row " << r;
        }
      }
    }
  }
}

TEST_P(TqlReferenceTest, WhereSelectsTheReferenceRows) {
  TypedFixture f(GetParam() ^ 0x1234);
  Rng rng(GetParam() * 977 + 13);
  ExprGen gen(rng, f);
  for (int trial = 0; trial < 20; ++trial) {
    std::string p = gen.Predicate();
    auto view = RunQuery(f.ds, "SELECT * FROM ds WHERE " + p);
    ASSERT_TRUE(view.ok()) << p << ": " << view.status();
    std::vector<uint64_t> want;
    std::vector<reference::Value> keep = ReferenceValues(f, *Parse(p));
    for (uint64_t r = 0; r < f.rows; ++r) {
      if (keep[r].Truthy()) want.push_back(r);
    }
    EXPECT_EQ(view->indices(), want) << "WHERE " << p;
  }
}

TEST_P(TqlReferenceTest, OrderByFollowsTheReferenceKeys) {
  TypedFixture f(GetParam() ^ 0x5151);
  Rng rng(GetParam() * 131 + 3);
  ExprGen gen(rng, f);
  for (int trial = 0; trial < 10; ++trial) {
    std::string key = trial % 2 == 0 ? gen.Scalar(1) : gen.Array();
    bool desc = rng.NextBool();
    auto view = RunQuery(f.ds, "SELECT a FROM ds ORDER BY " + key +
                                   (desc ? " DESC" : " ASC"));
    ASSERT_TRUE(view.ok()) << key << ": " << view.status();
    // The sort key: an array (a scalar too) by its mean.
    std::vector<reference::Value> values = ReferenceValues(f, *Parse(key));
    std::vector<std::pair<double, uint64_t>> keyed;
    for (uint64_t r = 0; r < f.rows; ++r) {
      keyed.emplace_back(values[r].is_array()
                             ? reference::ReduceMean(values[r].array())
                             : 0.0,
                         r);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [desc](const auto& x, const auto& y) {
                       return desc ? x.first > y.first : x.first < y.first;
                     });
    std::vector<uint64_t> want;
    for (const auto& [k, r] : keyed) want.push_back(r);
    EXPECT_EQ(view->indices(), want) << "ORDER BY " << key;
  }
}

TEST_P(TqlReferenceTest, ProjectionsStoreTheReferenceBytes) {
  TypedFixture f(GetParam() ^ 0xABCD);
  Rng rng(GetParam() * 31 + 7);
  ExprGen gen(rng, f);
  for (int trial = 0; trial < 20; ++trial) {
    std::string root;
    std::string text = gen.Array(&root);
    auto view = RunQuery(f.ds, "SELECT " + text + " AS v FROM ds");
    ASSERT_TRUE(view.ok()) << text << ": " << view.status();
    ExprPtr expr = Parse(text);
    // A column or a slice of one keeps the column's dtype; anything else
    // is stored as float64.
    DType dtype = DType::kFloat64;
    if (expr->kind == Expr::Kind::kIndex || expr->kind == Expr::Kind::kColumn) {
      dtype = (*f.ds->GetTensor(root))->meta().dtype;
    }
    std::vector<reference::Value> want = ReferenceValues(f, *expr);
    for (uint64_t r = 0; r < f.rows; ++r) {
      auto cell = view->Cell(r, "v");
      ASSERT_TRUE(cell.ok()) << cell.status();
      EXPECT_EQ(Diff(*cell, want[r]), "") << text << " at row " << r;
      auto sample = view->CellSample(r, "v");
      ASSERT_TRUE(sample.ok()) << sample.status();
      EXPECT_EQ(*sample, want[r].array().ToSample(dtype))
          << text << " at row " << r;
    }
  }
}

TEST_P(TqlReferenceTest, GroupAggregatesMatchTheReference) {
  TypedFixture f(GetParam() ^ 0x9999, 20);
  Rng rng(GetParam() * 104729 + 5);
  ExprGen gen(rng, f);
  for (int trial = 0; trial < 5; ++trial) {
    std::string x = gen.Array();
    auto view = RunQuery(f.ds, "SELECT b, COUNT() AS n, SUM(" + x +
                                   ") AS s, MEAN(" + x + ") AS m, MIN(" + x +
                                   ") AS lo, MAX(" + x + ") AS hi FROM ds "
                                   "GROUP BY b");
    ASSERT_TRUE(view.ok()) << x << ": " << view.status();
    // Groups in numeric key order; each member contributes the reference
    // mean of its value.
    std::vector<reference::Value> keys = ReferenceValues(f, *Parse("b"));
    std::vector<reference::Value> values = ReferenceValues(f, *Parse(x));
    std::map<double, std::vector<uint64_t>> groups;
    for (uint64_t r = 0; r < f.rows; ++r) {
      groups[keys[r].array().AsScalar()].push_back(r);
    }
    ASSERT_EQ(view->size(), groups.size()) << x;
    size_t g = 0;
    for (const auto& [key, members] : groups) {
      double acc = 0, mn = HUGE_VAL, mx = -HUGE_VAL;
      for (uint64_t m : members) {
        double d = reference::ReduceMean(values[m].array());
        acc += d;
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
      const std::pair<const char*, double> want[] = {
          {"b", key},
          {"n", static_cast<double>(members.size())},
          {"s", acc},
          {"m", acc / members.size()},
          {"lo", mn},
          {"hi", mx}};
      for (const auto& [column, number] : want) {
        auto cell = view->Cell(g, column);
        ASSERT_TRUE(cell.ok()) << cell.status();
        EXPECT_EQ(Diff(*cell, reference::Value::Number(number)), "")
            << x << ": group " << key << " column " << column;
      }
      ++g;
    }
  }
}

TEST(TqlIoCountTest, ExplainAnalyzeCountsEachLoadAndCacheHit) {
  // Per operator, each row's first reference to a tensor loads its sample
  // (bytes_read) and later references in that row hit the row cache.
  TypedFixture f(7);
  const std::vector<uint64_t>& shape = f.shapes.at("t_uint16");
  uint64_t sample_bytes = shape[0] * shape[1] * shape[2] * 2;
  QueryProfile profile;
  QueryOptions options;
  options.profile = &profile;
  auto view = RunQuery(f.ds,
                       "SELECT * FROM ds WHERE MEAN(t_uint16) >= 0 AND "
                       "MAX(t_uint16[0]) >= 0 ORDER BY SUM(t_uint16)",
                       options);
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), f.rows);
  std::map<std::string, OperatorProfile> ops;
  for (const auto& op : profile.operators) ops[op.op] = op;
  EXPECT_EQ(ops["filter"].bytes_read, f.rows * sample_bytes);
  EXPECT_EQ(ops["filter"].cache_hits, f.rows);
  EXPECT_EQ(ops["sort"].bytes_read, f.rows * sample_bytes);
  EXPECT_EQ(ops["sort"].cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TqlReferenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Where the engine is meant to differ: exact integer sums
// ---------------------------------------------------------------------------

TEST(TqlExactSumTest, IntegerSumsAreExactPast2To53) {
  // 2^53 + 1 + 1: a double accumulator rounds each partial sum back to
  // 2^53; the exact integer sum is 2^53 + 2, which a double holds exactly.
  const int64_t big = int64_t{1} << 53;
  auto ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
                .MoveValue();
  TensorOptions opts;
  opts.dtype = "int64";
  ASSERT_TRUE(ds->CreateTensor("x", opts).ok());
  ASSERT_TRUE(
      ds->Append({{"x", Sample::FromVector<int64_t>({big, 1, 1},
                                                    DType::kInt64)}})
          .ok());
  ASSERT_TRUE(ds->Append({{"x", Sample::FromVector<int64_t>(
                                    {-big, -1, -1}, DType::kInt64)}})
                  .ok());
  ASSERT_TRUE(ds->Flush().ok());

  for (uint64_t row = 0; row < 2; ++row) {
    double sign = row == 0 ? 1.0 : -1.0;
    EvalContext ctx(ds.get(), row);
    reference::EvalContext ref(ds.get(), row);
    for (const char* text : {"SUM(x)", "MEAN(x)"}) {
      ExprPtr e = Parse(text);
      auto got = Evaluate(*e, ctx);
      auto old = reference::Evaluate(*e, ref);
      ASSERT_TRUE(got.ok() && old.ok());
      double exact = sign * 9007199254740994.0;  // 2^53 + 2
      double rounded = sign * 9007199254740992.0;
      bool mean = std::string(text) == "MEAN(x)";
      EXPECT_EQ(got->array().AsScalar(), mean ? exact / 3 : exact) << text;
      EXPECT_EQ(old->array().AsScalar(), mean ? rounded / 3 : rounded)
          << text;
    }
  }

  // The 128-bit accumulator: two uint64 maxima add past 2^64 without
  // wrapping.
  ByteBuffer bytes(16, 0xff);
  NdArray umax = NdArray::FromSample(
      Sample(DType::kUInt64, TensorShape{2}, Slice(std::move(bytes))));
  EXPECT_EQ(ReduceSum(umax), 36893488147419103230.0);  // 2^65 - 2, rounded
  EXPECT_EQ(ReduceMax(umax), 18446744073709551615.0);
}

// ---------------------------------------------------------------------------
// QueryAt(c) equals the query over a copy materialized at c
// ---------------------------------------------------------------------------

/// Empty when the two views hold the same rows and the same stored bytes
/// in every column.
std::string ViewDiff(DatasetView& got, DatasetView& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  if (got.columns() != want.columns()) return "columns";
  if (got.computed() != want.computed()) return "computed";
  if (!got.computed() && got.indices() != want.indices()) return "indices";
  for (size_t i = 0; i < got.size(); ++i) {
    for (const auto& column : got.columns()) {
      auto a = got.CellSample(i, column);
      auto b = want.CellSample(i, column);
      if (!a.ok() || !b.ok()) return "cell error at " + std::to_string(i);
      if (!(*a == *b)) return column + " differs at row " + std::to_string(i);
    }
  }
  return "";
}

TEST(QueryAtTest, PinnedQueryEqualsTheQueryOverAMaterializedCopy) {
  auto lake = DeepLake::Open(std::make_shared<storage::MemoryStore>());
  ASSERT_TRUE(lake.ok()) << lake.status();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  ASSERT_TRUE((*lake)->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE((*lake)->CreateTensor("labels", lbl).ok());

  // Row r's pixels sit in [8r, 8r + 63], so MEAN(images) rises with r.
  Rng rng(42);
  auto append = [&](uint64_t r) {
    uint64_t h = 9 + rng.Uniform(4), w = 9 + rng.Uniform(4);
    ByteBuffer pixels(h * w * 3);
    for (auto& p : pixels) p = static_cast<uint8_t>(8 * r + rng.Uniform(64));
    return (*lake)->Append(
        {{"images", Sample(DType::kUInt8, TensorShape{h, w, 3},
                           Slice(std::move(pixels)))},
         {"labels", Sample::Scalar(r % 4, DType::kInt32)}});
  };
  for (uint64_t r = 0; r < 16; ++r) ASSERT_TRUE(append(r).ok());
  auto pinned = (*lake)->Commit("first");
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  // The second commit appends rows and rewrites row 0 so that any read of
  // head state shows in the pinned results.
  for (uint64_t r = 16; r < 24; ++r) ASSERT_TRUE(append(r).ok());
  ByteBuffer white(10 * 10 * 3, 255);
  auto images = (*lake)->dataset().GetTensor("images");
  ASSERT_TRUE(images.ok());
  ASSERT_TRUE((*images)
                  ->Update(0, Sample(DType::kUInt8, TensorShape{10, 10, 3},
                                     Slice(std::move(white))))
                  .ok());
  ASSERT_TRUE((*lake)->Commit("second").ok());

  auto at = (*lake)->At(*pinned);
  ASSERT_TRUE(at.ok()) << at.status();
  auto all = RunQuery(*at, "SELECT * FROM ds");
  ASSERT_TRUE(all.ok()) << all.status();
  auto copy = MaterializeView(*all, std::make_shared<storage::MemoryStore>());
  ASSERT_TRUE(copy.ok()) << copy.status();
  ASSERT_EQ((*copy)->NumRows(), 16u);

  for (const std::string& q :
       {std::string("SELECT * FROM ds WHERE MEAN(images) > 90.5"),
        std::string("SELECT * FROM ds WHERE MAX(images[0:8, 0:8, 1]) < 150"),
        std::string("SELECT labels, MAX(images[0:8, 0:8, 1]) AS m, "
                    "images[0:8, 0:8, 1] AS crop FROM ds"),
        std::string("SELECT labels, COUNT() AS n, MEAN(images) AS m FROM ds "
                    "GROUP BY labels"),
        std::string("SELECT * FROM ds ORDER BY MEAN(images) DESC"),
        std::string("SELECT labels FROM ds ORDER BY STD(images[:, :, 2])")}) {
    auto got = (*lake)->QueryAt(*pinned, q);
    auto want = RunQuery(*copy, q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status();
    ASSERT_TRUE(want.ok()) << q << ": " << want.status();
    EXPECT_GT(got->size(), 0u) << q;
    EXPECT_EQ(ViewDiff(*got, *want), "") << q;
  }
}

}  // namespace
}  // namespace dl::tql
