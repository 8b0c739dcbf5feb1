// Tests for list-predicate quantifiers (all/any/none/single) and reduce —
// extensions in the §2 "expression language includes powerful features"
// family — including their SQL-style 3VL behaviour and use in queries.

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/eval/evaluator.h"
#include "src/frontend/ast_printer.h"
#include "src/frontend/parser.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

Value Eval(const std::string& text) {
  auto expr = ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
  if (!expr.ok()) return Value::Null();
  MapEnvironment env;
  EvalContext ctx;
  static ValueMap no_params;
  ctx.parameters = &no_params;
  auto r = EvaluateExpr(**expr, env, ctx);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

TEST(Quantifiers, All) {
  EXPECT_TRUE(Eval("all(x IN [1, 2, 3] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("all(x IN [1, -2, 3] WHERE x > 0)").AsBool());
  EXPECT_TRUE(Eval("all(x IN [] WHERE x > 0)").AsBool());  // vacuous
  // 3VL: an unknown element makes the verdict unknown unless a false
  // decides it.
  EXPECT_TRUE(Eval("all(x IN [1, null] WHERE x > 0)").is_null());
  EXPECT_FALSE(Eval("all(x IN [-1, null] WHERE x > 0)").AsBool());
}

TEST(Quantifiers, Any) {
  EXPECT_TRUE(Eval("any(x IN [0, 1] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("any(x IN [0, -1] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("any(x IN [] WHERE x > 0)").AsBool());
  EXPECT_TRUE(Eval("any(x IN [null, 1] WHERE x > 0)").AsBool());
  EXPECT_TRUE(Eval("any(x IN [null, 0] WHERE x > 0)").is_null());
}

TEST(Quantifiers, NoneAndSingle) {
  EXPECT_TRUE(Eval("none(x IN [0, -1] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("none(x IN [0, 1] WHERE x > 0)").AsBool());
  EXPECT_TRUE(Eval("single(x IN [0, 1, 0] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("single(x IN [1, 1] WHERE x > 0)").AsBool());
  EXPECT_FALSE(Eval("single(x IN [] WHERE x > 0)").AsBool());
  EXPECT_TRUE(Eval("single(x IN [1, null] WHERE x > 0)").is_null());
  EXPECT_FALSE(Eval("single(x IN [1, 1, null] WHERE x > 0)").AsBool());
}

TEST(Quantifiers, NullList) {
  EXPECT_TRUE(Eval("all(x IN null WHERE x > 0)").is_null());
  EXPECT_TRUE(Eval("any(x IN null WHERE x > 0)").is_null());
}

TEST(Reduce, Folds) {
  EXPECT_EQ(Eval("reduce(acc = 0, x IN [1, 2, 3] | acc + x)").AsInt(), 6);
  EXPECT_EQ(Eval("reduce(acc = 1, x IN [2, 3, 4] | acc * x)").AsInt(), 24);
  EXPECT_EQ(Eval("reduce(s = '', w IN ['a', 'b'] | s + w)").AsString(), "ab");
  EXPECT_EQ(Eval("reduce(acc = 42, x IN [] | acc + x)").AsInt(), 42);
  EXPECT_TRUE(Eval("reduce(acc = 0, x IN null | acc + x)").is_null());
}

TEST(Reduce, AccumulatorVisibleInBody) {
  // Running maximum.
  EXPECT_EQ(Eval("reduce(m = -1, x IN [3, 9, 2] | "
                 "CASE WHEN x > m THEN x ELSE m END)")
                .AsInt(),
            9);
}

TEST(QuantifiersInQueries, WhereClause) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE ({vs: [1, 2, 3]}), ({vs: [1, -2]}), "
                         "({vs: []})")
                  .ok());
  auto r = db.Execute(
      "MATCH (n) WHERE all(v IN n.vs WHERE v > 0) RETURN count(*) AS c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 2);  // [1,2,3] and []
  auto r2 = db.Execute(
      "MATCH (n) WHERE any(v IN n.vs WHERE v < 0) RETURN count(*) AS c");
  EXPECT_EQ(r2->table.rows()[0][0].AsInt(), 1);
}

TEST(QuantifiersInQueries, OverVarLengthRelationships) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:S)-[:T {w: 1}]->()-[:T {w: 2}]->(:E), "
                         "(:S)-[:T {w: 1}]->()-[:T {w: 1}]->(:E)")
                  .ok());
  auto r = db.Execute(
      "MATCH (:S)-[rs:T*2]->(:E) "
      "WHERE all(r IN rs WHERE r.w = 1) RETURN count(*) AS c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(QuantifiersInQueries, ReduceOverCollect) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("UNWIND [1, 2, 3, 4] AS x CREATE ({v: x})").ok());
  auto r = db.Execute(
      "MATCH (n) WITH collect(n.v) AS vs "
      "RETURN reduce(acc = 0, v IN vs | acc + v * v) AS sumsq");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 30);
}

TEST(QuantifiersSemantics, ScopingChecked) {
  Database db = testutil::OpenOn();
  // The iteration variable is not visible outside.
  auto bad = db.Execute("RETURN all(x IN [1] WHERE x > 0) AND x > 0");
  EXPECT_FALSE(bad.ok());
  // The list expression cannot use the iteration variable.
  auto bad2 = db.Execute("RETURN any(x IN [x] WHERE x > 0)");
  EXPECT_FALSE(bad2.ok());
}

TEST(QuantifiersSyntax, RoundTrip) {
  auto q = ParseExpression("all(x IN list WHERE (x > 0))");
  ASSERT_TRUE(q.ok());
  // A plain function call named all(...) without `IN` stays a call.
  auto fn = ParseExpression("all(1, 2)");
  ASSERT_TRUE(fn.ok());
  EXPECT_EQ((*fn)->kind, ast::Expr::Kind::kFunctionCall);
  auto red = ParseExpression("reduce(acc = 0, x IN xs | acc + x)");
  ASSERT_TRUE(red.ok());
  EXPECT_EQ((*red)->kind, ast::Expr::Kind::kReduce);
}

}  // namespace
}  // namespace gqlite
