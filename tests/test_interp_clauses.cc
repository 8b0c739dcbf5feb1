// Clause-level semantics tests: ⟦C⟧G applied to explicit driving tables —
// exercising the table-to-table functions of Figure 7 directly through
// Interpreter::ExecuteClause, including the literal Example 4.6 setup.

#include <gtest/gtest.h>

#include "fixtures/paper_graphs.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"

namespace gqlite {
namespace {

class ClauseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig4_ = workload::MakePaperFigure4Graph();
  }

  /// Applies the first clause of "<<clause>> RETURN 1" to `input`.
  Result<Table> Apply(const std::string& clause_text, Table input) {
    GQL_ASSIGN_OR_RETURN(ast::Query q,
                         ParseQuery(clause_text + " RETURN 1"));
    Interpreter::Options opts;
    Interpreter interp(&catalog_, fig4_.graph, &params_, opts, &rand_);
    return interp.ExecuteClause(*q.parts[0].clauses[0], std::move(input));
  }

  Value N(int i) { return Value::Node(fig4_.n[i]); }

  workload::PaperFigure4 fig4_;
  GraphCatalog catalog_;
  ValueMap params_;
  uint64_t rand_ = 1;
};

TEST_F(ClauseTest, Example46LiteralDrivingTable) {
  // T = {(x : n1); (x : n3)} — exactly the table of Example 4.6.
  Table t({"x"});
  t.AddRow({N(1)});
  t.AddRow({N(3)});
  auto r = Apply("MATCH (x)-[:KNOWS*]->(y)", std::move(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Table expect({"x", "y"});
  expect.AddRow({N(1), N(2)});
  expect.AddRow({N(1), N(3)});
  expect.AddRow({N(1), N(4)});
  expect.AddRow({N(3), N(4)});
  EXPECT_TRUE(r->SameBag(expect)) << r->ToString();
}

TEST_F(ClauseTest, MatchOnUnitTable) {
  // ⟦MATCH (x:Teacher)⟧G(T()) — evaluation always starts from the table
  // with one empty tuple.
  auto r = Apply("MATCH (x:Teacher)", Table::Unit());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 3u);
  EXPECT_EQ(r->fields(), std::vector<std::string>{"x"});
}

TEST_F(ClauseTest, MatchOnEmptyTableYieldsEmpty) {
  // A table with no rows drives no matching at all (bag union over u ∈ T).
  Table empty({"x"});
  auto r = Apply("MATCH (x)-[:KNOWS]->(y)", std::move(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
  EXPECT_EQ(r->fields(), (std::vector<std::string>{"x", "y"}));
}

TEST_F(ClauseTest, MatchPreservesInputMultiplicity) {
  // Bag semantics: a duplicated input row duplicates its matches.
  Table t({"x"});
  t.AddRow({N(1)});
  t.AddRow({N(1)});
  auto r = Apply("MATCH (x)-[:KNOWS]->(y)", std::move(t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);
}

TEST_F(ClauseTest, OptionalMatchPadsPerRow) {
  // n4 has no outgoing KNOWS: its row pads with null; others bind.
  Table t({"x"});
  t.AddRow({N(3)});
  t.AddRow({N(4)});
  auto r = Apply("OPTIONAL MATCH (x)-[:KNOWS]->(y)", std::move(t));
  ASSERT_TRUE(r.ok());
  Table expect({"x", "y"});
  expect.AddRow({N(3), N(4)});
  expect.AddRow({N(4), Value::Null()});
  EXPECT_TRUE(r->SameBag(expect)) << r->ToString();
}

TEST_F(ClauseTest, OptionalMatchWhereInsideOptional) {
  // Figure 7: the WHERE participates in the per-row match attempt.
  Table t({"x"});
  t.AddRow({N(1)});
  auto r = Apply("OPTIONAL MATCH (x)-[:KNOWS]->(y) WHERE y:Teacher",
                 std::move(t));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_TRUE(r->rows()[0][1].is_null());  // n2 is a Student → padded
}

TEST_F(ClauseTest, WhereKeepsOnlyTrue) {
  Table t({"v"});
  t.AddRow({Value::Int(1)});
  t.AddRow({Value::Int(5)});
  t.AddRow({Value::Null()});
  auto r = Apply("WITH v WHERE v > 2", std::move(t));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows()[0][0].AsInt(), 5);
}

TEST_F(ClauseTest, UnwindExtendsEachRow) {
  Table t({"xs"});
  t.AddRow({Value::MakeList({Value::Int(1), Value::Int(2)})});
  t.AddRow({Value::EmptyList()});
  t.AddRow({Value::Int(9)});   // non-list → single row (Figure 7)
  t.AddRow({Value::Null()});   // paper rule: one null row
  auto r = Apply("UNWIND xs AS x", std::move(t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 4u);  // 2 + 0 + 1 + 1
  EXPECT_EQ(r->fields(), (std::vector<std::string>{"xs", "x"}));
}

TEST_F(ClauseTest, WithProjectsAndDropsColumns) {
  // §3: "the variable s is no longer in scope after line 3".
  Table t({"r", "s"});
  t.AddRow({N(1), N(2)});
  auto out = Apply("WITH r", std::move(t));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->fields(), std::vector<std::string>{"r"});
}

TEST_F(ClauseTest, MatchAddsNoFieldsWhenAllBound) {
  // All pattern variables already bound: MATCH acts as a semi-join filter.
  Table t({"x", "y"});
  t.AddRow({N(1), N(2)});   // n1 KNOWS n2: kept
  t.AddRow({N(1), N(3)});   // no direct edge: dropped
  auto r = Apply("MATCH (x)-[:KNOWS]->(y)", std::move(t));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->fields(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_TRUE(ValueEquivalent(r->rows()[0][1], N(2)));
}

}  // namespace
}  // namespace gqlite
