// Unit tests for the Volcano operators (§2 "Neo4j implementation") —
// exercised directly, below the planner: scans, Expand variants,
// variable-length expansion, Apply/OptionalApply, Filter, Unwind, Union,
// and PROFILE row counters.

#include <gtest/gtest.h>

#include "fixtures/generators.h"
#include "src/core/database.h"
#include "src/frontend/parser.h"
#include "src/plan/operators.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = g_.CreateNode({"A"}, {{"v", Value::Int(1)}});
    b_ = g_.CreateNode({"B"}, {{"v", Value::Int(2)}});
    c_ = g_.CreateNode({"B"}, {{"v", Value::Int(3)}});
    ab_ = g_.CreateRelationship(a_, b_, "T").value();
    ac_ = g_.CreateRelationship(a_, c_, "U").value();
    cb_ = g_.CreateRelationship(c_, b_, "T").value();
    ctx_.graph = &g_;
    ctx_.eval.graph = &g_;
    static ValueMap no_params;
    ctx_.eval.parameters = &no_params;
  }

  OperatorPtr Unit() {
    static const Table* unit = new Table(Table::Unit());
    return std::make_unique<ArgumentOp>(std::vector<std::string>{}, unit);
  }

  Table Drain(Operator* op, size_t batch_size = RowBatch::kDefaultCapacity) {
    EXPECT_TRUE(op->Open().ok());
    auto t = DrainPlan(op, batch_size);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : Table();
  }

  PropertyGraph g_;
  NodeId a_, b_, c_;
  RelId ab_, ac_, cb_;
  ExecContext ctx_;
};

TEST_F(OperatorTest, AllNodesScan) {
  NodeScanOp scan(Unit(), &ctx_, "n");
  Table t = Drain(&scan);
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.fields(), std::vector<std::string>{"n"});
  EXPECT_EQ(scan.rows_produced(), 3);
}

TEST_F(OperatorTest, AllNodesScanSkipsDeleted) {
  ASSERT_TRUE(g_.DeleteRelationship(ab_).ok());
  ASSERT_TRUE(g_.DeleteRelationship(ac_).ok());
  ASSERT_TRUE(g_.DeleteNode(a_).ok());
  NodeScanOp scan(Unit(), &ctx_, "n");
  EXPECT_EQ(Drain(&scan).NumRows(), 2u);
}

TEST_F(OperatorTest, NodeByLabelScan) {
  NodeScanOp scan(Unit(), &ctx_, "n", "B");
  Table t = Drain(&scan);
  EXPECT_EQ(t.NumRows(), 2u);
  NodeScanOp none(Unit(), &ctx_, "n", "Zzz");
  EXPECT_EQ(Drain(&none).NumRows(), 0u);
}

TEST_F(OperatorTest, ExpandAllDirections) {
  auto make_expand = [&](ast::Direction dir, const char* type) {
    auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "r";
    spec.to_var = "m";
    spec.direction = dir;
    if (type != nullptr) spec.types = {type};
    return std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  };
  auto out = make_expand(ast::Direction::kRight, nullptr);
  EXPECT_EQ(Drain(out.get()).NumRows(), 3u);
  auto in = make_expand(ast::Direction::kLeft, nullptr);
  EXPECT_EQ(Drain(in.get()).NumRows(), 3u);
  auto both = make_expand(ast::Direction::kBoth, nullptr);
  EXPECT_EQ(Drain(both.get()).NumRows(), 6u);
  auto typed = make_expand(ast::Direction::kRight, "T");
  EXPECT_EQ(Drain(typed.get()).NumRows(), 2u);
}

TEST_F(OperatorTest, ExpandIntoChecksBoundTarget) {
  // Schema [n, m]: all pairs via two scans, then ExpandInto over T.
  auto scan1 = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  auto scan2 = std::make_unique<NodeScanOp>(std::move(scan1), &ctx_, "m");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.to_col = 1;
  spec.rel_var = "r";
  spec.direction = ast::Direction::kRight;
  ExpandOp into(std::move(scan2), &ctx_, spec);
  Table t = Drain(&into);
  EXPECT_EQ(t.NumRows(), 3u);  // exactly the three edges
}

TEST_F(OperatorTest, ExpandUniquenessColumns) {
  // (a)-[r1]->(x)-[r2]->(y): r2 must not reuse r1.
  auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  ExpandSpec s1;
  s1.from_col = 0;
  s1.rel_var = "r1";
  s1.to_var = "x";
  s1.direction = ast::Direction::kBoth;
  auto e1 = std::make_unique<ExpandOp>(std::move(scan), &ctx_, s1);
  ExpandSpec s2;
  s2.from_col = 2;
  s2.rel_var = "r2";
  s2.to_var = "y";
  s2.direction = ast::Direction::kBoth;
  s2.uniqueness_cols = {1};  // r1's column
  auto e2 = std::make_unique<ExpandOp>(std::move(e1), &ctx_, s2);
  Table with_uniq = Drain(e2.get());
  // Without the uniqueness column the bounce-back paths appear too.
  auto scan_b = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  auto e1b = std::make_unique<ExpandOp>(std::move(scan_b), &ctx_, s1);
  ExpandSpec s2b = s2;
  s2b.uniqueness_cols.clear();
  auto e2b = std::make_unique<ExpandOp>(std::move(e1b), &ctx_, s2b);
  Table without = Drain(e2b.get());
  EXPECT_LT(with_uniq.NumRows(), without.NumRows());
}

TEST_F(OperatorTest, HashJoinExpandAgreesWithExpand) {
  auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.rel_var = "r";
  spec.to_var = "m";
  spec.direction = ast::Direction::kBoth;
  auto adj = std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  Table t1 = Drain(adj.get());
  auto scan2 = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  auto hj = std::make_unique<HashJoinExpandOp>(std::move(scan2), &ctx_, spec);
  Table t2 = Drain(hj.get());
  EXPECT_TRUE(t1.SameBag(t2));
}

TEST_F(OperatorTest, VarLengthExpandLengths) {
  GraphPtr chain = workload::MakeChain(4);  // 3 rels
  ExecContext cctx;
  cctx.graph = chain.get();
  cctx.eval.graph = chain.get();
  auto scan = std::make_unique<NodeScanOp>(Unit(), &cctx, "n");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.rel_var = "rs";
  spec.to_var = "m";
  spec.direction = ast::Direction::kRight;
  auto vle = std::make_unique<VarLengthExpandOp>(std::move(scan), &cctx,
                                                 spec, 1, 2);
  Table t = Drain(vle.get());
  EXPECT_EQ(t.NumRows(), 5u);  // 3 length-1 + 2 length-2
  auto scan0 = std::make_unique<NodeScanOp>(Unit(), &cctx, "n");
  auto vle0 = std::make_unique<VarLengthExpandOp>(std::move(scan0), &cctx,
                                                  spec, 0, 1);
  EXPECT_EQ(Drain(vle0.get()).NumRows(), 7u);  // 4 zero + 3 one
}

TEST_F(OperatorTest, FilterKeepsOnlyTrue) {
  auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  auto pred = ParseExpression("n.v > 1");
  ASSERT_TRUE(pred.ok());
  FilterOp filter(std::move(scan), &ctx_, pred->get());
  Table t = Drain(&filter);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(OperatorTest, UnwindOperator) {
  auto expr = ParseExpression("[1, 2, 3]");
  ASSERT_TRUE(expr.ok());
  UnwindOp unwind(Unit(), &ctx_, expr->get(), "x");
  Table t = Drain(&unwind);
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(OperatorTest, ProfileCountersAfterExecution) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B), (:A)").ok());
  auto profile = db.Profile("MATCH (a:A)-[:T]->(b:B) RETURN b");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile->find("rows:"), std::string::npos) << *profile;
  EXPECT_NE(profile->find("result: 1 rows"), std::string::npos) << *profile;
}

TEST_F(OperatorTest, ExplainTreeShapes) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto e1 = db.Explain("MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) "
                       "RETURN a, b");
  ASSERT_TRUE(e1.ok());
  EXPECT_NE(e1->find("OptionalApply"), std::string::npos) << *e1;
  auto e2 = db.Explain(
      "MATCH (a:A) RETURN a AS n UNION MATCH (b:B) RETURN b AS n");
  ASSERT_TRUE(e2.ok());
  EXPECT_NE(e2->find("Union"), std::string::npos) << *e2;
  auto e3 = db.Explain("MATCH (a)-[:T*1..2]->(b) RETURN b");
  ASSERT_TRUE(e3.ok());
  EXPECT_NE(e3->find("VarLengthExpand"), std::string::npos) << *e3;
  auto e4 = db.Explain("MATCH p = (a)-[:T]->(b) RETURN length(p)");
  ASSERT_TRUE(e4.ok());
  EXPECT_NE(e4->find("PatternMatch(fallback)"), std::string::npos) << *e4;
}

TEST_F(OperatorTest, RowBatchSelectionComposes) {
  RowBatch b(8);
  for (int i = 0; i < 6; ++i) b.Append({Value::Int(i)});
  EXPECT_EQ(b.size(), 6u);
  b.Select({0, 2, 3, 5});  // live values 0, 2, 3, 5
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.row(1)[0].AsInt(), 2);
  b.Select({1, 3});  // live positions of the previous view → values 2, 5
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.row(0)[0].AsInt(), 2);
  EXPECT_EQ(b.row(1)[0].AsInt(), 5);
  b.Clear();
  EXPECT_EQ(b.size(), 0u);
  b.Append({Value::Int(7)});  // slot reuse after Clear keeps rows dense
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.row(0)[0].AsInt(), 7);
}

TEST_F(OperatorTest, BatchBoundariesDoNotChangeResults) {
  // The same pipeline drained at awkward morsel sizes (1, 2, 3, 7) must
  // produce the same bag as the default morsel — catches off-by-one
  // resume bugs at batch boundaries.
  auto make = [&]() {
    auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "r";
    spec.to_var = "m";
    spec.direction = ast::Direction::kBoth;
    return std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  };
  auto ref_op = make();
  Table reference = Drain(ref_op.get());
  EXPECT_EQ(reference.NumRows(), 6u);
  for (size_t bs : {1u, 2u, 3u, 7u}) {
    auto op = make();
    Table t = Drain(op.get(), bs);
    EXPECT_TRUE(reference.SameBag(t)) << "batch_size=" << bs;
  }
}

TEST_F(OperatorTest, FilterUsesSelectionWithoutCopying) {
  auto scan = std::make_unique<NodeScanOp>(Unit(), &ctx_, "n");
  auto pred = ParseExpression("n.v > 1");
  ASSERT_TRUE(pred.ok());
  FilterOp filter(std::move(scan), &ctx_, pred->get());
  ASSERT_TRUE(filter.Open().ok());
  RowBatch batch(16);
  auto ok = filter.NextBatch(&batch);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  // 3 nodes scanned into the morsel, 2 survive through the selection.
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(filter.rows_produced(), 2);
  EXPECT_EQ(filter.batches_produced(), 1);
}

TEST_F(OperatorTest, ScanFiltersInPlace) {
  // 3,000 :N nodes with v = 0..2999, so survivors of a scan-level
  // predicate cross morsel boundaries at both batch sizes.
  PropertyGraph g;
  for (int64_t i = 0; i < 3000; ++i) {
    g.CreateNode({"N"}, {{"v", Value::Int(i)}});
  }
  ExecContext cctx;
  cctx.graph = &g;
  cctx.eval.graph = &g;
  static ValueMap no_params;
  cctx.eval.parameters = &no_params;
  auto even = ParseExpression("n.v % 2 = 0");
  auto below_x = ParseExpression("n.v < x");
  auto fails_at_5 = ParseExpression("n.v / (n.v - 5) > 0");
  ASSERT_TRUE(even.ok() && below_x.ok() && fails_at_5.ok());
  for (size_t bs : {size_t{1}, RowBatch::kDefaultCapacity}) {
    SCOPED_TRACE("batch_size=" + std::to_string(bs));
    // Only survivors are kept, across morsel boundaries.
    NodeScanOp scan(Unit(), &cctx, "n", "N");
    scan.AddPredicate(even->get());
    Table t = Drain(&scan, bs);
    ASSERT_EQ(t.NumRows(), 1500u);
    for (const ValueList& row : t.rows()) {
      EXPECT_EQ(g.NodeProperty(row[0].AsNode(), "v").AsInt() % 2, 0);
    }
    EXPECT_EQ(scan.rows_examined(), 3000);
    EXPECT_EQ(scan.rows_produced(), 1500);
    EXPECT_EQ(scan.batches_produced(),
              static_cast<int64_t>((1500 + bs - 1) / bs));

    // An Argument-driven scan sees the driving row's columns.
    const ValueList driving = {Value::Int(3)};
    const std::vector<std::string> driving_cols = {"x"};
    auto arg = std::make_unique<ArgumentOp>(driving_cols, nullptr);
    arg->BindRow(&driving);
    NodeScanOp correlated(std::move(arg), &cctx, "n");
    correlated.AddPredicate(below_x->get());
    Table c = Drain(&correlated, bs);
    ASSERT_EQ(c.NumRows(), 3u);
    EXPECT_EQ(c.fields(), (std::vector<std::string>{"x", "n"}));
    for (const ValueList& row : c.rows()) EXPECT_EQ(row[0].AsInt(), 3);

    // An erroring predicate stops the scan at the failing candidate.
    NodeScanOp failing(Unit(), &cctx, "n", "N");
    failing.AddPredicate(fails_at_5->get());
    ASSERT_TRUE(failing.Open().ok());
    auto drained = DrainPlan(&failing, bs);
    ASSERT_FALSE(drained.ok());
    EXPECT_EQ(drained.status().ToString(),
              "EvaluationError: division by zero");
    EXPECT_EQ(failing.rows_examined(), 6);
  }
}

TEST_F(OperatorTest, VarLengthBatchBoundaries) {
  GraphPtr chain = workload::MakeChain(6);
  ExecContext cctx;
  cctx.graph = chain.get();
  cctx.eval.graph = chain.get();
  auto make = [&]() {
    auto scan = std::make_unique<NodeScanOp>(Unit(), &cctx, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "rs";
    spec.to_var = "m";
    spec.direction = ast::Direction::kRight;
    return std::make_unique<VarLengthExpandOp>(std::move(scan), &cctx,
                                               spec, 0, 3);
  };
  auto ref_op = make();
  Table reference = Drain(ref_op.get());
  for (size_t bs : {1u, 2u, 5u}) {
    auto op = make();
    EXPECT_TRUE(reference.SameBag(Drain(op.get(), bs))) << "batch_size=" << bs;
  }
}

TEST_F(OperatorTest, UnionOpDeduplicates) {
  std::vector<OperatorPtr> parts;
  parts.push_back(std::make_unique<NodeScanOp>(Unit(), &ctx_, "n"));
  parts.push_back(std::make_unique<NodeScanOp>(Unit(), &ctx_, "n"));
  UnionOp u(std::move(parts), /*all=*/false, {"n"});
  Table t = Drain(&u);
  EXPECT_EQ(t.NumRows(), 3u);  // deduplicated
  std::vector<OperatorPtr> parts2;
  parts2.push_back(std::make_unique<NodeScanOp>(Unit(), &ctx_, "n"));
  parts2.push_back(std::make_unique<NodeScanOp>(Unit(), &ctx_, "n"));
  UnionOp u2(std::move(parts2), /*all=*/true, {"n"});
  EXPECT_EQ(Drain(&u2).NumRows(), 6u);
}

}  // namespace
}  // namespace gqlite
