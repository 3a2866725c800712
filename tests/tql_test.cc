// TQL tests: lexer/parser, NdArray kernels, end-to-end queries (including
// the paper's Fig. 5 query), GROUP BY, ARRANGE BY, version queries,
// JOIN, materialization, EXPLAIN [ANALYZE].

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "storage/storage.h"
#include "tql/executor.h"
#include "tql/lexer.h"
#include "tql/parser.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "version/version_control.h"

namespace dl::tql {
namespace {

using tsf::Dataset;
using tsf::DType;
using tsf::Sample;
using tsf::TensorOptions;
using tsf::TensorShape;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesOperatorsAndLiterals) {
  auto tokens = Lex("SELECT a[1:2, :] WHERE x >= 3.5 AND y != 'txt'");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kIdent);
  EXPECT_EQ(kinds.back(), TokenKind::kEnd);
  // Find the >=, !=, string.
  bool saw_ge = false, saw_ne = false, saw_str = false;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kGe) saw_ge = true;
    if (t.kind == TokenKind::kNe) saw_ne = true;
    if (t.kind == TokenKind::kString && t.text == "txt") saw_str = true;
  }
  EXPECT_TRUE(saw_ge);
  EXPECT_TRUE(saw_ne);
  EXPECT_TRUE(saw_str);
}

TEST(LexerTest, CommentsAndErrors) {
  auto ok = Lex("a -- trailing comment\n + 1");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok).size(), 4u);  // a, +, 1, end
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("a # b").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, PaperFigure5QueryParses) {
  const char* kQuery = R"(
    SELECT
      images[100:500, 100:500, 0:2] as crop,
      NORMALIZE(
        boxes,
        [100, 100, 400, 400]) as box
    FROM
      dataset
    WHERE IOU(boxes, "training/boxes") > 0.95
    ORDER BY IOU(boxes, "training/boxes")
    ARRANGE BY labels
  )";
  auto q = ParseQuery(kQuery);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[0].alias, "crop");
  EXPECT_EQ(q->select[0].expr->kind, Expr::Kind::kIndex);
  EXPECT_EQ(q->select[1].alias, "box");
  EXPECT_EQ(q->select[1].expr->text, "NORMALIZE");
  EXPECT_EQ(q->from, "dataset");
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->where->bop, BinaryOp::kGt);
  ASSERT_NE(q->order_by, nullptr);
  ASSERT_NE(q->arrange_by, nullptr);
  EXPECT_EQ(q->arrange_by->text, "labels");
}

TEST(ParserTest, ClausesAndDefaults) {
  auto q = ParseQuery("SELECT * FROM ds WHERE a = 1 LIMIT 10 OFFSET 5");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->SelectsAll());
  EXPECT_EQ(q->limit, 10);
  EXPECT_EQ(q->offset, 5);
  EXPECT_FALSE(q->order_desc);

  auto q2 = ParseQuery("SELECT a FROM ds ORDER BY a DESC");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->order_desc);

  auto q3 = ParseQuery("SELECT labels, COUNT() FROM ds GROUP BY labels");
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3->group_by.size(), 1u);
}

TEST(ParserTest, VersionClause) {
  auto q = ParseQuery("SELECT * FROM ds VERSION 'abc123'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->version, "abc123");
}

TEST(ParserTest, DottedNamesBecomeGroupPaths) {
  auto e = ParseExpression("training.boxes");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kColumn);
  EXPECT_EQ((*e)->text, "training/boxes");
}

TEST(ParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 = 7 (not 9); comparisons bind looser than arithmetic.
  auto e = ParseExpression("1 + 2 * 3 = 7");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->bop, BinaryOp::kEq);
  // AND binds looser than comparison.
  auto e2 = ParseExpression("a > 1 AND b < 2 OR NOT c");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->bop, BinaryOp::kOr);
}

TEST(ParserTest, MalformedQueriesRejected) {
  for (const char* bad :
       {"", "SELECT", "SELECT a FROM", "SELECT a WHERE", "SELECT a LIMIT x",
        "FROM ds", "SELECT a[", "SELECT f(", "SELECT a ORDER a",
        "SELECT a,", "SELECT a b c"}) {
    auto q = ParseQuery(bad);
    EXPECT_FALSE(q.ok()) << "input: " << bad;
  }
}

TEST(ParserTest, DeepNestingIsAnErrorNotAStackOverflow) {
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  const int kDeep = 100000;
  for (const std::string& where :
       {repeat("(", kDeep) + "1" + repeat(")", kDeep),
        repeat("NOT ", kDeep) + "1", "labels = " + repeat("- ", kDeep) + "1"}) {
    auto q = ParseQuery("SELECT * FROM ds WHERE " + where);
    ASSERT_FALSE(q.ok());
    EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status();
  }
}

TEST(ParserTest, LongOperatorChainsAreBoundedNotAStackOverflow) {
  // A left-deep chain is parsed by a loop, but each operand is one more
  // level of the tree that destruction, validation and evaluation recurse
  // over.
  std::string chain = "labels = 1";
  chain.reserve(chain.size() + 4 * 1000000);
  for (int i = 0; i < 1000000; ++i) chain += " + 1";
  auto q = ParseQuery("SELECT * FROM ds WHERE " + chain);
  ASSERT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status();
}

TEST(ParserTest, ThousandTermOrChainParsesAndEvaluates) {
  // labels cycle 0, 1, 2; only the chain's last term, labels = 1, matches.
  auto ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
                .MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        ds->Append({{"labels", Sample::Scalar(i % 3, DType::kInt32)}}).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  std::string where;
  for (int k = 1001; k >= 3; --k) {
    where += "labels = " + std::to_string(k) + " OR ";
  }
  where += "labels = 1";
  auto view = RunQuery(ds, "SELECT * FROM ds WHERE " + where);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->indices(), (std::vector<uint64_t>{1, 4, 7}));
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

TEST(NdArrayTest, SampleRoundTrip) {
  Sample s = Sample::FromVector<int32_t>({1, -2, 3}, DType::kInt32);
  NdArray a = NdArray::FromSample(s);
  EXPECT_EQ(a.shape(), (std::vector<uint64_t>{3}));
  EXPECT_DOUBLE_EQ(a.data()[1], -2);
  Sample back = a.ToSample(DType::kInt32);
  EXPECT_EQ(back.data, s.data);
}

TEST(NdArrayTest, SliceMatchesNumpySemantics) {
  // 4x5 array of v = r*5+c.
  std::vector<double> data(20);
  for (int i = 0; i < 20; ++i) data[i] = i;
  NdArray a({4, 5}, data);
  // a[1:3, 2:4] -> [[7,8],[12,13]]
  auto r = SliceArray(a, {{false, 0, true, true, false, 1, 3, 1},
                          {false, 0, true, true, false, 2, 4, 1}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->shape(), (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(r->data(), (std::vector<double>{7, 8, 12, 13}));
  // Single index drops the dim: a[2] -> row of 5.
  SliceSpec idx;
  idx.is_index = true;
  idx.index = 2;
  auto row = SliceArray(a, {idx});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->shape(), (std::vector<uint64_t>{5}));
  EXPECT_EQ(row->data()[0], 10);
  // Negative index.
  idx.index = -1;
  auto last = SliceArray(a, {idx});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->data()[0], 15);
  // Step.
  SliceSpec step;
  step.has_step = true;
  step.step = 2;
  auto every_other = SliceArray(a, {step});
  ASSERT_TRUE(every_other.ok());
  EXPECT_EQ(every_other->shape(), (std::vector<uint64_t>{2, 5}));
  // Clamping beyond bounds.
  SliceSpec wide;
  wide.has_start = true;
  wide.start = 2;
  wide.has_stop = true;
  wide.stop = 100;
  auto clamped = SliceArray(a, {wide});
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->shape()[0], 2u);
  // Errors.
  EXPECT_FALSE(SliceArray(a, {idx, idx, idx}).ok());
  idx.index = 7;
  EXPECT_TRUE(SliceArray(a, {idx}).status().IsOutOfRange());
}

TEST(NdArrayTest, Reductions) {
  NdArray a({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(ReduceSum(a), 10);
  EXPECT_DOUBLE_EQ(ReduceMean(a), 2.5);
  EXPECT_DOUBLE_EQ(ReduceMin(a), 1);
  EXPECT_DOUBLE_EQ(ReduceMax(a), 4);
  EXPECT_NEAR(ReduceStd(a), std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(ReduceL2(a), std::sqrt(30.0), 1e-12);
  EXPECT_TRUE(ReduceAny(a));
  EXPECT_TRUE(ReduceAll(a));
  NdArray zeros({2}, {0, 0});
  EXPECT_FALSE(ReduceAny(zeros));
  NdArray mixed({2}, {0, 1});
  EXPECT_TRUE(ReduceAny(mixed));
  EXPECT_FALSE(ReduceAll(mixed));
}

TEST(NdArrayTest, IouKernel) {
  // Identical boxes -> 1.0. Disjoint -> 0.0. Half overlap known value.
  NdArray a({1, 4}, {0, 0, 10, 10});
  NdArray b({1, 4}, {0, 0, 10, 10});
  EXPECT_DOUBLE_EQ(*MeanBestIou(a, b), 1.0);
  NdArray c({1, 4}, {100, 100, 5, 5});
  EXPECT_DOUBLE_EQ(*MeanBestIou(a, c), 0.0);
  // Shifted by half: intersection 50, union 150 -> 1/3.
  NdArray d({1, 4}, {5, 0, 10, 10});
  EXPECT_NEAR(*MeanBestIou(a, d), 50.0 / 150.0, 1e-12);
  // Multi-box: best match per lhs box, averaged.
  NdArray many({2, 4}, {0, 0, 10, 10, 100, 100, 5, 5});
  EXPECT_NEAR(*MeanBestIou(many, a), 0.5, 1e-12);
  // Bad shapes rejected.
  NdArray bad({3}, {1, 2, 3});
  EXPECT_FALSE(MeanBestIou(bad, a).ok());
}

TEST(NdArrayTest, NormalizeKernel) {
  NdArray boxes({1, 4}, {150, 200, 50, 100});
  NdArray window({4}, {100, 100, 400, 400});
  auto out = NormalizeBoxes(boxes, window);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->data()[0], (150.0 - 100) / 400);
  EXPECT_DOUBLE_EQ(out->data()[1], (200.0 - 100) / 400);
  EXPECT_DOUBLE_EQ(out->data()[2], 50.0 / 400);
  EXPECT_DOUBLE_EQ(out->data()[3], 100.0 / 400);
  NdArray degenerate({4}, {0, 0, 0, 0});
  EXPECT_FALSE(NormalizeBoxes(boxes, degenerate).ok());
}

// ---------------------------------------------------------------------------
// End-to-end queries
// ---------------------------------------------------------------------------

/// Builds a small detection dataset: images (ragged), labels, boxes and a
/// ground-truth group tensor training/boxes.
std::shared_ptr<Dataset> MakeDetectionDataset(int n) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions img;
  img.htype = "image";
  img.sample_compression = "none";
  EXPECT_TRUE(ds->CreateTensor("images", img).ok());
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  TensorOptions box;
  box.htype = "bbox";
  EXPECT_TRUE(ds->CreateTensor("boxes", box).ok());
  EXPECT_TRUE(ds->CreateTensor("training/boxes", box).ok());
  TensorOptions txt;
  txt.htype = "text";
  EXPECT_TRUE(ds->CreateTensor("captions", txt).ok());

  for (int i = 0; i < n; ++i) {
    uint64_t side = 600;
    ByteBuffer pixels(side * side * 3);
    for (size_t p = 0; p < pixels.size(); ++p) {
      pixels[p] = static_cast<uint8_t>((p + i) & 0xff);
    }
    // Ground truth box fixed; predicted box drifts with i so IOU decays.
    std::vector<float> gt = {100, 100, 200, 200};
    std::vector<float> pred = {100.f + i * 10, 100, 200, 200};
    std::map<std::string, Sample> row;
    row["images"] = Sample(DType::kUInt8, TensorShape{side, side, 3},
                           std::move(pixels));
    row["labels"] = Sample::Scalar(i % 3, DType::kInt32);
    row["boxes"] = Sample(DType::kFloat32, TensorShape{1, 4}, [&] {
      ByteBuffer b(16);
      memcpy(b.data(), pred.data(), 16);
      return b;
    }());
    row["training/boxes"] = Sample(DType::kFloat32, TensorShape{1, 4}, [&] {
      ByteBuffer b(16);
      memcpy(b.data(), gt.data(), 16);
      return b;
    }());
    row["captions"] = Sample::FromString(
        i % 2 == 0 ? "a photo of a cat #" + std::to_string(i)
                   : "a photo of a dog #" + std::to_string(i));
    EXPECT_TRUE(ds->Append(row).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

TEST(QueryTest, SelectStarWhereFilter) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(ds, "SELECT * FROM ds WHERE labels = 1");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 3u);  // labels cycle 0,1,2
  for (size_t i = 0; i < view->size(); ++i) {
    auto v = view->Cell(i, "labels");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->array().AsScalar(), 1);
  }
  // Source rows are 1, 4, 7.
  EXPECT_EQ(view->source_row(0), 1u);
  EXPECT_EQ(view->source_row(2), 7u);
  EXPECT_TRUE(view->IsSparseOver(ds->NumRows()));
}

TEST(QueryTest, TwoHundredNestedParenthesesParseAndEvaluate) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(ds, "SELECT * FROM ds WHERE " + std::string(200, '(') +
                               "labels = 1" + std::string(200, ')'));
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 3u);
}

TEST(QueryTest, PaperFigure5EndToEnd) {
  auto ds = MakeDetectionDataset(10);
  const char* kQuery = R"(
    SELECT
      images[100:500, 100:500, 0:2] as crop,
      NORMALIZE(boxes, [100, 100, 400, 400]) as box
    FROM dataset
    WHERE IOU(boxes, "training/boxes") > 0.5
    ORDER BY IOU(boxes, "training/boxes") DESC
    ARRANGE BY labels
  )";
  auto view = RunQuery(ds, kQuery);
  ASSERT_TRUE(view.ok()) << view.status();
  // IOU decays with i: row i has pred box shifted by 10*i on a 200-wide
  // box; IOU > 0.5 holds while shift < ~66 => rows 0..6.
  EXPECT_EQ(view->size(), 7u);
  ASSERT_EQ(view->columns().size(), 2u);
  EXPECT_EQ(view->columns()[0], "crop");
  EXPECT_EQ(view->columns()[1], "box");
  // Crop has the sliced shape.
  auto crop = view->Cell(0, "crop");
  ASSERT_TRUE(crop.ok()) << crop.status();
  EXPECT_EQ(crop->array().shape(), (std::vector<uint64_t>{400, 400, 2}));
  // Normalized box values are in window units.
  auto box = view->Cell(0, "box");
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->array().shape(), (std::vector<uint64_t>{1, 4}));
  EXPECT_NEAR(box->array().data()[2], 0.5, 1e-9);  // 200/400
  // CellSample keeps uint8 for the image crop (slice of a column).
  auto crop_sample = view->CellSample(0, "crop");
  ASSERT_TRUE(crop_sample.ok());
  EXPECT_EQ(crop_sample->dtype, DType::kUInt8);
  EXPECT_EQ(crop_sample->shape, (TensorShape{400, 400, 2}));
}

TEST(QueryTest, OrderBySortsAndLimitApplies) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(
      ds, "SELECT labels FROM ds ORDER BY labels DESC LIMIT 4");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 4u);
  EXPECT_EQ(view->Cell(0, "labels")->array().AsScalar(), 2);
  EXPECT_EQ(view->Cell(3, "labels")->array().AsScalar(), 1);
}

TEST(QueryTest, ArrangeByInterleavesClasses) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(ds, "SELECT labels FROM ds ARRANGE BY labels");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 9u);
  // Round-robin over classes: every consecutive triple covers {0,1,2}.
  for (size_t i = 0; i + 2 < 9; i += 3) {
    std::set<int> seen;
    for (size_t k = 0; k < 3; ++k) {
      seen.insert(static_cast<int>(
          view->Cell(i + k, "labels")->array().AsScalar()));
    }
    EXPECT_EQ(seen.size(), 3u) << "window at " << i;
  }
}

TEST(QueryTest, StringFunctionsAndContains) {
  auto ds = MakeDetectionDataset(6);
  auto view = RunQuery(
      ds, "SELECT captions FROM ds WHERE CONTAINS(captions, 'cat')");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 3u);
  auto v = view->Cell(0, "captions");
  ASSERT_TRUE(v.ok());
  EXPECT_NE(v->str().find("cat"), std::string::npos);

  auto upper = RunQuery(
      ds, "SELECT UPPER(captions) AS shout FROM ds LIMIT 1");
  ASSERT_TRUE(upper.ok());
  EXPECT_NE(upper->Cell(0, "shout")->str().find("A PHOTO"),
            std::string::npos);
}

TEST(QueryTest, ShapeFunctionUsesShapeEncoder) {
  auto ds = MakeDetectionDataset(3);
  auto view = RunQuery(
      ds, "SELECT SHAPE(images) AS s FROM ds WHERE SHAPE(images)[0] = 600");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 3u);
  auto s = view->Cell(0, "s");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->array().data(), (std::vector<double>{600, 600, 3}));
}

TEST(QueryTest, GroupByAggregates) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(ds,
                       "SELECT labels, COUNT() AS n, MEAN(labels) AS m "
                       "FROM ds GROUP BY labels");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(view->computed());
  ASSERT_EQ(view->size(), 3u);
  double total = 0;
  for (size_t i = 0; i < 3; ++i) {
    auto n = view->Cell(i, "n");
    ASSERT_TRUE(n.ok());
    total += n->array().AsScalar();
    auto lbl = view->Cell(i, "labels");
    auto mean = view->Cell(i, "m");
    EXPECT_DOUBLE_EQ(lbl->array().AsScalar(), mean->array().AsScalar());
  }
  EXPECT_DOUBLE_EQ(total, 9);
}

TEST(QueryTest, GroupByOrdersGroupsByTheTypedKey) {
  // Numbers order numerically (2 before 10), strings lexicographically,
  // and a null key (an empty cell) comes first.
  auto ds = Dataset::Create(std::make_shared<storage::MemoryStore>())
                .MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", lbl).ok());
  TensorOptions txt;
  txt.htype = "text";
  ASSERT_TRUE(ds->CreateTensor("names", txt).ok());
  TensorOptions opt;
  opt.dtype = "float64";
  ASSERT_TRUE(ds->CreateTensor("score", opt).ok());
  const char* names[] = {"b", "B", "a", "ab"};
  for (int i = 23; i >= 0; --i) {
    std::map<std::string, Sample> row;
    row["labels"] = Sample::Scalar(i % 12, DType::kInt32);
    row["names"] = Sample::FromString(names[i % 4]);
    // Rows of label 3 leave score empty.
    if (i % 12 != 3) row["score"] = Sample::Scalar(-(i % 12), DType::kFloat64);
    ASSERT_TRUE(ds->Append(row).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());

  auto keys = [&](const std::string& column) {
    auto view = RunQuery(ds, "SELECT " + column + ", COUNT() AS n FROM ds "
                             "GROUP BY " + column);
    EXPECT_TRUE(view.ok()) << view.status();
    std::vector<std::string> out;
    for (size_t i = 0; view.ok() && i < view->size(); ++i) {
      out.push_back(view->Cell(i, column)->ToString());
    }
    return out;
  };
  EXPECT_EQ(keys("labels"),
            (std::vector<std::string>{"0", "1", "2", "3", "4", "5", "6", "7",
                                      "8", "9", "10", "11"}));
  EXPECT_EQ(keys("names"), (std::vector<std::string>{"B", "a", "ab", "b"}));
  EXPECT_EQ(keys("score"),
            (std::vector<std::string>{"null", "-11", "-10", "-9", "-8", "-7",
                                      "-6", "-5", "-4", "-2", "-1", "0"}));
}

TEST(QueryTest, ArithmeticAndLogicInWhere) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(
      ds, "SELECT labels FROM ds WHERE labels % 2 = 0 AND NOT labels = 2");
  ASSERT_TRUE(view.ok()) << view.status();
  for (size_t i = 0; i < view->size(); ++i) {
    EXPECT_EQ(view->Cell(i, "labels")->array().AsScalar(), 0);
  }
  EXPECT_EQ(view->size(), 3u);
}

TEST(QueryTest, VersionQueryTimeTravels) {
  auto base = std::make_shared<storage::MemoryStore>();
  auto vc = version::VersionControl::OpenOrInit(base).MoveValue();
  auto ds = Dataset::Create(vc->working_store()).MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(ds->CreateTensor("labels", lbl).ok());
  ASSERT_TRUE(ds->Append({{"labels", Sample::Scalar(1, DType::kInt32)}}).ok());
  ASSERT_TRUE(ds->Flush().ok());
  std::string v1 = vc->Commit("v1").MoveValue();
  ds = Dataset::Open(vc->working_store()).MoveValue();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ds->Append({{"labels", Sample::Scalar(2, DType::kInt32)}}).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());

  QueryOptions opts;
  opts.version_resolver =
      [&](const std::string& commit) -> Result<std::shared_ptr<Dataset>> {
    DL_ASSIGN_OR_RETURN(auto store, vc->StoreAt(commit));
    return Dataset::Open(store);
  };
  auto now = RunQuery(ds, "SELECT * FROM ds", opts);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->size(), 5u);
  auto old = RunQuery(ds, "SELECT * FROM ds VERSION '" + v1 + "'", opts);
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->size(), 1u);
  // Without a resolver, version queries fail cleanly.
  auto no_resolver = RunQuery(ds, "SELECT * FROM ds VERSION 'x'");
  EXPECT_TRUE(no_resolver.status().IsNotImplemented());
}

TEST(QueryTest, MaterializeViewProducesDenseDataset) {
  auto ds = MakeDetectionDataset(9);
  auto view = RunQuery(ds,
                       "SELECT images[0:50, 0:50, :] AS thumb, labels "
                       "FROM ds WHERE labels = 2");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 3u);

  auto target = std::make_shared<storage::MemoryStore>();
  auto mat = MaterializeView(*view, target);
  ASSERT_TRUE(mat.ok()) << mat.status();
  EXPECT_EQ((*mat)->NumRows(), 3u);
  // Dense: row i of the materialized dataset is view row i.
  auto reopened = Dataset::Open(target);
  ASSERT_TRUE(reopened.ok());
  auto thumb = (*reopened)->GetTensor("thumb").MoveValue()->Read(0);
  ASSERT_TRUE(thumb.ok());
  EXPECT_EQ(thumb->shape, (TensorShape{50, 50, 3}));
  EXPECT_EQ(thumb->dtype, DType::kUInt8);
  auto labels = (*reopened)->GetTensor("labels").MoveValue();
  EXPECT_EQ(labels->Read(2)->AsInt(), 2);
  // Passthrough column kept its htype.
  EXPECT_EQ(labels->meta().htype.kind, tsf::HtypeKind::kClassLabel);
}

TEST(QueryTest, JoinAcrossDatasets) {
  // §7.3 extension: join a detection dataset against a metadata table by
  // class id.
  auto ds = MakeDetectionDataset(6);  // labels cycle 0,1,2

  auto meta_store = std::make_shared<storage::MemoryStore>();
  auto meta = Dataset::Create(meta_store).MoveValue();
  TensorOptions id;
  id.dtype = "int32";
  ASSERT_TRUE(meta->CreateTensor("class_id", id).ok());
  TensorOptions name;
  name.htype = "text";
  ASSERT_TRUE(meta->CreateTensor("class_name", name).ok());
  const char* kNames[] = {"cat", "dog", "bird"};
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(meta->Append({{"class_id", Sample::Scalar(c, DType::kInt32)},
                              {"class_name", Sample::FromString(kNames[c])}})
                    .ok());
  }
  ASSERT_TRUE(meta->Flush().ok());

  QueryOptions opts;
  opts.datasets["classes"] = meta;
  auto view = RunQuery(ds,
                       "SELECT d.labels AS label, classes.class_name AS name "
                       "FROM d JOIN classes ON d.labels = classes.class_id "
                       "ORDER BY d.labels",
                       opts);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(view->computed());
  ASSERT_EQ(view->size(), 6u);  // every row matches exactly one class
  EXPECT_EQ(view->Cell(0, "label")->array().AsScalar(), 0);
  EXPECT_EQ(view->Cell(0, "name")->str(), "cat");
  EXPECT_EQ(view->Cell(5, "name")->str(), "bird");

  // WHERE composes with the join.
  auto cats = RunQuery(ds,
                       "SELECT d.captions AS c FROM d JOIN classes "
                       "ON d.labels = classes.class_id "
                       "WHERE classes.class_name = 'dog'",
                       opts);
  ASSERT_TRUE(cats.ok()) << cats.status();
  EXPECT_EQ(cats->size(), 2u);

  // Errors: unregistered dataset, SELECT *, multiple joins.
  EXPECT_TRUE(RunQuery(ds,
                       "SELECT d.labels FROM d JOIN ghost ON d.labels = "
                       "ghost.x",
                       opts)
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(RunQuery(ds,
                        "SELECT * FROM d JOIN classes ON d.labels = "
                        "classes.class_id",
                        opts)
                   .ok());
}

TEST(QueryTest, ErrorsSurfaceCleanly) {
  auto ds = MakeDetectionDataset(3);
  // Unknown tensor.
  EXPECT_FALSE(RunQuery(ds, "SELECT nope FROM ds WHERE nope = 1").ok());
  // Unknown function.
  EXPECT_TRUE(RunQuery(ds, "SELECT FFT(labels) FROM ds")
                  .status()
                  .IsNotImplemented());
  // Aggregate without GROUP BY select list restriction.
  EXPECT_FALSE(RunQuery(ds, "SELECT * FROM ds GROUP BY labels").ok());
}

TEST(QueryTest, CountOutsideGroupRowsFailsAtPlanTime) {
  auto ds = MakeDetectionDataset(3);
  for (const char* q :
       {"SELECT COUNT() AS n FROM ds", "SELECT * FROM ds WHERE COUNT() > 0",
        "SELECT labels FROM ds ORDER BY COUNT()",
        "SELECT labels, COUNT() AS n FROM ds WHERE COUNT() > 0 "
        "GROUP BY labels"}) {
    auto view = RunQuery(ds, q);
    EXPECT_TRUE(view.status().IsInvalidArgument()) << q << ": "
                                                   << view.status();
  }
  // MEAN, SUM, MIN and MAX stay per-row reductions outside GROUP BY.
  auto view = RunQuery(ds, "SELECT MEAN(images) AS m FROM ds");
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 3u);
  EXPECT_TRUE(view->Cell(0, "m").ok());
}

/// The class table JOIN tests join against: class_id 0, 1, 2 named cat,
/// dog, bird.
std::shared_ptr<Dataset> MakeClassTable() {
  auto meta = Dataset::Create(std::make_shared<storage::MemoryStore>())
                  .MoveValue();
  TensorOptions id;
  id.dtype = "int32";
  EXPECT_TRUE(meta->CreateTensor("class_id", id).ok());
  TensorOptions name;
  name.htype = "text";
  EXPECT_TRUE(meta->CreateTensor("class_name", name).ok());
  const char* kNames[] = {"cat", "dog", "bird"};
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(meta->Append({{"class_id", Sample::Scalar(c, DType::kInt32)},
                              {"class_name", Sample::FromString(kNames[c])}})
                    .ok());
  }
  EXPECT_TRUE(meta->Flush().ok());
  return meta;
}

/// A labels dataset under version control, labels cycling 0, 1, 2: commit
/// `v1` holds 3 rows, the head 7. `options` resolves VERSION and registers
/// the class table as `classes`.
struct VersionedLabels {
  std::shared_ptr<version::VersionControl> vc;
  std::shared_ptr<Dataset> ds;
  std::string v1;
  QueryOptions options;

  VersionedLabels() {
    vc = version::VersionControl::OpenOrInit(
             std::make_shared<storage::MemoryStore>())
             .MoveValue();
    ds = Dataset::Create(vc->working_store()).MoveValue();
    TensorOptions lbl;
    lbl.htype = "class_label";
    EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
    Append(0, 3);
    v1 = vc->Commit("v1").MoveValue();
    ds = Dataset::Open(vc->working_store()).MoveValue();
    Append(3, 7);
    options.datasets["classes"] = MakeClassTable();
    auto vcs = vc;
    options.version_resolver =
        [vcs](const std::string& commit) -> Result<std::shared_ptr<Dataset>> {
      DL_ASSIGN_OR_RETURN(auto store, vcs->StoreAt(commit));
      return Dataset::Open(store);
    };
  }

  void Append(int begin, int end) {
    for (int i = begin; i < end; ++i) {
      EXPECT_TRUE(
          ds->Append({{"labels", Sample::Scalar(i % 3, DType::kInt32)}}).ok());
    }
    EXPECT_TRUE(ds->Flush().ok());
  }

  /// Column `column` of the query's result, as numbers.
  std::vector<double> Numbers(const std::string& query,
                              const std::string& column) {
    std::vector<double> out;
    auto view = RunQuery(ds, query, options);
    EXPECT_TRUE(view.ok()) << query << ": " << view.status();
    if (!view.ok()) return out;
    for (size_t i = 0; i < view->size(); ++i) {
      out.push_back(view->Cell(i, column)->array().AsScalar());
    }
    return out;
  }
};

TEST(QueryTest, GroupByComposesWithSortAndLimit) {
  VersionedLabels lake;  // head labels 0,1,2,0,1,2,0
  EXPECT_EQ(lake.Numbers("SELECT labels, COUNT() AS n FROM ds "
                         "GROUP BY labels LIMIT 1",
                         "labels"),
            (std::vector<double>{0}));
  EXPECT_EQ(lake.Numbers("SELECT labels FROM ds GROUP BY labels "
                         "ORDER BY labels DESC",
                         "labels"),
            (std::vector<double>{2, 1, 0}));
  // A group row's sort key reduces an aggregate over its members.
  EXPECT_EQ(lake.Numbers("SELECT labels, COUNT() AS n FROM ds "
                         "GROUP BY labels ORDER BY COUNT() DESC LIMIT 2",
                         "n"),
            (std::vector<double>{3, 2}));
}

TEST(QueryTest, JoinHonorsArrangeAndVersion) {
  VersionedLabels lake;
  const std::string join =
      "SELECT d.labels AS l FROM d JOIN classes "
      "ON d.labels = classes.class_id";
  EXPECT_EQ(lake.Numbers(join + " ORDER BY d.labels ARRANGE BY d.labels", "l"),
            (std::vector<double>{0, 1, 2, 0, 1, 2, 0}));
  // VERSION pins the FROM dataset before it is joined.
  EXPECT_EQ(lake.Numbers("SELECT d.labels AS l FROM d JOIN classes "
                         "ON d.labels = classes.class_id VERSION '" +
                             lake.v1 + "'",
                         "l"),
            (std::vector<double>{0, 1, 2}));
}

TEST(QueryTest, JoinValidatesExpressionsWhenNoPairMatches) {
  VersionedLabels lake;
  const std::string no_match =
      " FROM d JOIN classes ON d.labels = classes.class_id + 100";
  auto empty = RunQuery(lake.ds, "SELECT d.labels AS l" + no_match,
                        lake.options);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(RunQuery(lake.ds, "SELECT NOSUCH(d.labels) AS x" + no_match,
                       lake.options)
                  .status()
                  .IsNotImplemented());
  EXPECT_TRUE(RunQuery(lake.ds, "SELECT classes.nope AS x" + no_match,
                       lake.options)
                  .status()
                  .IsNotFound());
}

TEST(QueryTest, ShapeReadsTheShapeEncoderThroughJoinBindings) {
  // SHAPE of a column loads no sample: a filter on it reads zero bytes.
  auto ds = MakeDetectionDataset(3);
  QueryProfile profile;
  QueryOptions opts;
  opts.profile = &profile;
  auto view = RunQuery(ds, "SELECT labels FROM ds WHERE SHAPE(images)[0] = 600",
                       opts);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->size(), 3u);
  for (const auto& op : profile.operators) {
    if (op.op == "filter") {
      EXPECT_EQ(op.bytes_read, 0u);
    }
  }
  // In a JOIN, SHAPE(alias.tensor) reads the bound row's shape.
  VersionedLabels lake;
  auto joined = RunQuery(lake.ds,
                         "SELECT SHAPE(d.labels) AS s FROM d JOIN classes "
                         "ON d.labels = classes.class_id",
                         lake.options);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto scan = RunQuery(lake.ds, "SELECT SHAPE(labels) AS s FROM ds");
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(joined->size(), 7u);
  EXPECT_EQ(joined->Cell(0, "s")->ToString(), scan->Cell(0, "s")->ToString());
}

TEST(QueryTest, JoinWithGroupBy) {
  VersionedLabels lake;  // head labels 0,1,2,0,1,2,0: 3 cats
  auto view = RunQuery(lake.ds,
                       "SELECT classes.class_name AS name, COUNT() AS n "
                       "FROM d JOIN classes ON d.labels = classes.class_id "
                       "GROUP BY classes.class_name ORDER BY COUNT() DESC",
                       lake.options);
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view->size(), 3u);
  EXPECT_EQ(view->Cell(0, "name")->str(), "cat");
  EXPECT_EQ(view->Cell(0, "n")->array().AsScalar(), 3);
  double total = 0;
  for (size_t i = 0; i < 3; ++i) {
    total += view->Cell(i, "n")->array().AsScalar();
  }
  EXPECT_EQ(total, 7);
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// Labels-only dataset large enough that per-operator wall times are
/// measurably nonzero (the profile-coverage test below needs real work).
std::shared_ptr<Dataset> MakeLabelsDataset(int n) {
  auto store = std::make_shared<storage::MemoryStore>();
  auto ds = Dataset::Create(store).MoveValue();
  TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE(ds->CreateTensor("labels", lbl).ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        ds->Append({{"labels", Sample::Scalar(i % 7, DType::kInt32)}}).ok());
  }
  EXPECT_TRUE(ds->Flush().ok());
  return ds;
}

TEST(ParserTest, ExplainPrefixSetsMode) {
  auto plain = ParseQuery("SELECT * FROM ds");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->explain, ExplainMode::kNone);
  auto plan = ParseQuery("EXPLAIN SELECT * FROM ds WHERE labels = 1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->explain, ExplainMode::kPlan);
  ASSERT_NE(plan->where, nullptr);
  auto analyze = ParseQuery("explain analyze SELECT labels FROM ds LIMIT 3");
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  EXPECT_EQ(analyze->explain, ExplainMode::kAnalyze);
  EXPECT_EQ(analyze->limit, 3);
  // EXPLAIN is a statement prefix, not an identifier anywhere else.
  EXPECT_FALSE(ParseQuery("SELECT EXPLAIN FROM ds").ok());
  EXPECT_FALSE(ParseQuery("EXPLAIN").ok());
}

TEST(ExplainTest, PlanViewDescribesWithoutExecuting) {
  auto ds = MakeLabelsDataset(20);
  auto view = RunQuery(
      ds, "EXPLAIN SELECT labels FROM ds WHERE labels = 1 LIMIT 4");
  ASSERT_TRUE(view.ok()) << view.status();
  // The result is a one-column "plan" text view, not query rows.
  ASSERT_EQ(view->columns(), std::vector<std::string>{"plan"});
  ASSERT_GE(view->size(), 3u);  // header + at least filter and limit ops
  std::string all;
  for (size_t i = 0; i < view->size(); ++i) {
    all += view->Cell(i, "plan")->str();
    all += "\n";
  }
  EXPECT_NE(all.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(all.find("filter"), std::string::npos);
  EXPECT_NE(all.find("limit"), std::string::npos);
  // Un-analyzed plans carry no measured counters.
  ASSERT_NE(view->profile(), nullptr);
  EXPECT_FALSE(view->profile()->analyzed);
  for (const auto& op : view->profile()->operators) {
    EXPECT_EQ(op.wall_us, 0) << op.op;
  }
}

TEST(ExplainTest, AnalyzeReportsRowsAndCoversWallTime) {
  auto ds = MakeLabelsDataset(2000);
  QueryProfile profile;
  QueryOptions opts;
  opts.profile = &profile;
  const std::string q =
      "EXPLAIN ANALYZE SELECT labels FROM ds WHERE labels % 7 = 1 LIMIT 100";
  int64_t wall_start = NowMicros();
  auto view = RunQuery(ds, q, opts);
  int64_t wall_us = NowMicros() - wall_start;
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(profile.analyzed);
  EXPECT_EQ(profile.query, q);

  // Per-operator row accounting: the filter sees all 2000 rows and keeps
  // 286 (2000/7, labels cycle 0..6); the limit cuts those to 100; the
  // projection emits what the limit kept.
  const OperatorProfile* filter = nullptr;
  const OperatorProfile* limit = nullptr;
  const OperatorProfile* project = nullptr;
  for (const auto& op : profile.operators) {
    if (op.op == "filter") filter = &op;
    if (op.op == "limit") limit = &op;
    if (op.op == "project") project = &op;
  }
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(limit, nullptr);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(filter->rows_in, 2000u);
  EXPECT_EQ(filter->rows_out, 286u);
  EXPECT_EQ(limit->rows_in, 286u);
  EXPECT_EQ(limit->rows_out, 100u);
  EXPECT_EQ(project->rows_out, 100u);
  // The filter actually read chunks: I/O attribution is nonzero.
  EXPECT_GT(filter->bytes_read + filter->cache_hits, 0u);

  // Coverage: parse + per-operator wall must account for >= 90% of the
  // externally measured RunQuery wall time — the property that makes the
  // profile trustworthy for "where did my query go" questions.
  EXPECT_GT(profile.total_us, 0);
  EXPECT_LE(profile.OperatorWallSumUs(), wall_us);
  EXPECT_GE(profile.OperatorWallSumUs(),
            static_cast<int64_t>(0.9 * static_cast<double>(wall_us)))
      << "operators " << profile.OperatorWallSumUs() << "us of " << wall_us
      << "us wall";

  // The rendered tree and JSON carry the same story.
  std::string tree = profile.ToTreeString();
  EXPECT_NE(tree.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(tree.find("filter"), std::string::npos);
  EXPECT_NE(tree.find("rows 2000 -> 286"), std::string::npos);
  Json j = profile.ToJson();
  EXPECT_TRUE(j.Get("analyzed").as_bool());
  EXPECT_EQ(j.Get("operators").array().size(), profile.operators.size());
  // EXPLAIN ANALYZE returns the plan text (profiling a query should not
  // ship its rows); the same profile rides on the view.
  ASSERT_EQ(view->columns(), std::vector<std::string>{"plan"});
  ASSERT_NE(view->profile(), nullptr);
  EXPECT_TRUE(view->profile()->analyzed);
}

TEST(ExplainTest, ProfileWithoutExplainReturnsRealRows) {
  auto ds = MakeLabelsDataset(50);
  QueryProfile profile;
  QueryOptions opts;
  opts.profile = &profile;
  auto view = RunQuery(ds, "SELECT labels FROM ds WHERE labels = 2", opts);
  ASSERT_TRUE(view.ok()) << view.status();
  // Plain query + profile request: real rows come back AND the profile is
  // filled — profiling is not tied to the EXPLAIN statement form.
  EXPECT_EQ(view->size(), 7u);  // 50 rows, labels cycle 0..6: 2,9,...,44
  EXPECT_TRUE(profile.analyzed);
  ASSERT_FALSE(profile.operators.empty());
  ASSERT_NE(view->profile(), nullptr);
  EXPECT_EQ(view->profile()->operators.size(), profile.operators.size());
}

/// (op, detail) of each operator in the profile a query's view carries.
std::vector<std::pair<std::string, std::string>> OperatorList(
    const DatasetView& view) {
  std::vector<std::pair<std::string, std::string>> out;
  if (view.profile() == nullptr) return out;
  for (const auto& op : view.profile()->operators) {
    out.emplace_back(op.op, op.detail);
  }
  return out;
}

TEST(ExplainTest, ExplainListsTheOperatorsAnalyzeRuns) {
  VersionedLabels lake;
  const std::string version = " VERSION '" + lake.v1 + "'";
  const std::string join =
      "SELECT d.labels AS l, classes.class_name AS name FROM d JOIN classes "
      "ON d.labels = classes.class_id";
  const std::string queries[] = {
      "SELECT * FROM ds",
      "SELECT labels FROM ds WHERE labels = 1",
      "SELECT labels FROM ds ORDER BY labels DESC ARRANGE BY labels "
      "LIMIT 3 OFFSET 1",
      "SELECT labels, COUNT() AS n FROM ds WHERE labels < 2 GROUP BY labels "
      "ORDER BY labels DESC LIMIT 1",
      "SELECT * FROM ds" + version,
      join + " WHERE d.labels > 0 ORDER BY d.labels DESC ARRANGE BY d.labels "
             "LIMIT 2",
      join + version,
      "SELECT classes.class_name AS name, COUNT() AS n FROM d JOIN classes "
      "ON d.labels = classes.class_id GROUP BY classes.class_name",
  };
  for (const std::string& q : queries) {
    auto plan = RunQuery(lake.ds, "EXPLAIN " + q, lake.options);
    auto analyzed = RunQuery(lake.ds, "EXPLAIN ANALYZE " + q, lake.options);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status();
    ASSERT_TRUE(analyzed.ok()) << q << ": " << analyzed.status();
    EXPECT_FALSE(OperatorList(*plan).empty()) << q;
    EXPECT_EQ(OperatorList(*plan), OperatorList(*analyzed)) << q;
  }
  // A JOIN lists every operator it runs, in pipeline order.
  auto plan = RunQuery(lake.ds,
                       "EXPLAIN " + join +
                           " WHERE d.labels > 0 ORDER BY d.labels "
                           "ARRANGE BY d.labels LIMIT 2",
                       lake.options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<std::string> ops;
  for (const auto& [op, detail] : OperatorList(*plan)) ops.push_back(op);
  EXPECT_EQ(ops, (std::vector<std::string>{"plan", "join", "filter", "sort",
                                           "arrange", "limit", "project"}));
}

}  // namespace
}  // namespace dl::tql
