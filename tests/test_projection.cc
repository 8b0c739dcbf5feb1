// Projection/aggregation tests (the RETURN/WITH rules of Figures 6 and 7
// plus DISTINCT / ORDER BY / SKIP / LIMIT and implicit-grouping
// aggregation as described in §3).

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

class ProjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("UNWIND [[1, 'a'], [2, 'b'], [2, 'a'], "
                            "[3, 'b'], [null, 'a']] AS row "
                            "CREATE (:N {v: row[0], g: row[1]})")
                    .ok());
  }
  Table Run(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? std::move(r->table) : Table();
  }
  Database db_ = testutil::OpenOn();
};

TEST_F(ProjectionTest, ImplicitGroupingKeys) {
  Table t = Run("MATCH (n:N) RETURN n.g AS g, count(n.v) AS c ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 2);  // count skips the null v
  EXPECT_EQ(t.rows()[1][0].AsString(), "b");
  EXPECT_EQ(t.rows()[1][1].AsInt(), 2);
}

TEST_F(ProjectionTest, CountStarCountsRows) {
  Table t = Run("MATCH (n:N) RETURN n.g AS g, count(*) AS c ORDER BY g");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);  // null v still a row
}

TEST_F(ProjectionTest, GlobalAggregationOnEmptyInput) {
  Table t = Run("MATCH (n:Missing) RETURN count(*) AS c, sum(n.v) AS s, "
                "min(n.v) AS mn, collect(n.v) AS vs, avg(n.v) AS a");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 0);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 0);     // sum of nothing = 0
  EXPECT_TRUE(t.rows()[0][2].is_null());    // min of nothing = null
  EXPECT_TRUE(t.rows()[0][3].AsList().empty());
  EXPECT_TRUE(t.rows()[0][4].is_null());
}

TEST_F(ProjectionTest, GroupedAggregationOnEmptyInputGivesNoRows) {
  Table t = Run("MATCH (n:Missing) RETURN n.g AS g, count(*) AS c");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(ProjectionTest, NullsGroupTogether) {
  Table t = Run("MATCH (n:N) RETURN n.v AS v, count(*) AS c ORDER BY v");
  // Groups: 1, 2, 3, null → 4 groups; null sorts last.
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_TRUE(t.rows()[3][0].is_null());
  EXPECT_EQ(t.rows()[3][1].AsInt(), 1);
}

TEST_F(ProjectionTest, AggregatesSkipNulls) {
  Table t = Run("MATCH (n:N) RETURN sum(n.v) AS s, avg(n.v) AS a, "
                "min(n.v) AS mn, max(n.v) AS mx, collect(n.v) AS vs");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 8);           // 1+2+2+3
  EXPECT_DOUBLE_EQ(t.rows()[0][1].AsFloat(), 2.0);
  EXPECT_EQ(t.rows()[0][2].AsInt(), 1);
  EXPECT_EQ(t.rows()[0][3].AsInt(), 3);
  EXPECT_EQ(t.rows()[0][4].AsList().size(), 4u);  // nulls not collected
}

TEST_F(ProjectionTest, DistinctAggregates) {
  Table t = Run("MATCH (n:N) RETURN count(DISTINCT n.v) AS dv, "
                "collect(DISTINCT n.g) AS gs, sum(DISTINCT n.v) AS sv");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 3);  // 1, 2, 3
  EXPECT_EQ(t.rows()[0][1].AsList().size(), 2u);
  EXPECT_EQ(t.rows()[0][2].AsInt(), 6);
}

TEST_F(ProjectionTest, AggregateInsideExpression) {
  Table t = Run("MATCH (n:N) RETURN count(*) * 10 + 1 AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 51);
  Table t2 = Run("MATCH (n:N) RETURN n.g AS g, "
                 "count(*) + count(DISTINCT n.v) AS mixed ORDER BY g");
  EXPECT_EQ(t2.rows()[0][1].AsInt(), 3 + 2);  // group a: rows 3, distinct 1,2
}

TEST_F(ProjectionTest, SumIntStaysIntSumFloatIsFloat) {
  Table t = Run("UNWIND [1, 2] AS x RETURN sum(x) AS s");
  EXPECT_TRUE(t.rows()[0][0].is_int());
  Table t2 = Run("UNWIND [1, 2.5] AS x RETURN sum(x) AS s");
  EXPECT_TRUE(t2.rows()[0][0].is_float());
  EXPECT_DOUBLE_EQ(t2.rows()[0][0].AsFloat(), 3.5);
}

TEST_F(ProjectionTest, MinMaxUseOrderability) {
  Table t = Run("UNWIND [3, 'b', 1, 'a'] AS x RETURN min(x) AS mn, "
                "max(x) AS mx");
  // Orderability: strings sort before numbers.
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);
}

TEST_F(ProjectionTest, DistinctRows) {
  Table t = Run("MATCH (n:N) RETURN DISTINCT n.g AS g ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  Table t2 = Run("MATCH (n:N) WITH DISTINCT n.v AS v RETURN count(*) AS c");
  EXPECT_EQ(t2.rows()[0][0].AsInt(), 4);  // 1, 2, 3, null
}

TEST_F(ProjectionTest, OrderBySkipLimit) {
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.v AS v ORDER BY v DESC SKIP 1 LIMIT 2");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(t.rows()[1][0].AsInt(), 2);
}

TEST_F(ProjectionTest, OrderByMultipleKeysMixedDirections) {
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.g AS g, n.v AS v ORDER BY g ASC, v DESC");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 2);
  EXPECT_EQ(t.rows()[1][1].AsInt(), 1);
  EXPECT_EQ(t.rows()[2][0].AsString(), "b");
  EXPECT_EQ(t.rows()[2][1].AsInt(), 3);
}

TEST_F(ProjectionTest, OrderByPreProjectionVariable) {
  // Non-aggregating projection: ORDER BY may use the pre-projection vars.
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.g AS g ORDER BY n.v DESC LIMIT 1");
  EXPECT_EQ(t.rows()[0][0].AsString(), "b");  // v=3 is 'b'
}

TEST_F(ProjectionTest, OrderByProjectedExpressionText) {
  // Aggregating projection: ORDER BY resolves the projected column by its
  // derived name.
  Table t = Run("MATCH (n:N) RETURN n.g, count(*) AS c ORDER BY n.g DESC");
  EXPECT_EQ(t.rows()[0][0].AsString(), "b");
}

TEST_F(ProjectionTest, SkipLimitValidation) {
  auto bad = db_.Execute("MATCH (n:N) RETURN n.v LIMIT -1");
  EXPECT_FALSE(bad.ok());
  auto bad2 = db_.Execute("MATCH (n:N) RETURN n.v SKIP 'x'");
  EXPECT_FALSE(bad2.ok());
  Table t = Run("MATCH (n:N) RETURN n.v SKIP 99");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(ProjectionTest, WithWhereFiltersAfterProjection) {
  Table t = Run("MATCH (n:N) WITH n.v AS v WHERE v > 1 RETURN count(*) AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 3);  // 2, 2, 3 (null fails v > 1)
}

TEST_F(ProjectionTest, StarKeepsAllColumns) {
  Table t = Run("MATCH (n:N) WITH * RETURN count(n) AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 5);
  Table t2 = Run("UNWIND [1] AS a UNWIND [2] AS b RETURN *");
  EXPECT_EQ(t2.fields(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(ProjectionTest, StarPlusAggregateGroupsByAllColumns) {
  Table t = Run("MATCH (n:N) WITH n.g AS g WITH *, count(*) AS c "
                "RETURN g, c ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);
}

TEST_F(ProjectionTest, CollectPreservesInputOrderWithinGroup) {
  Table t = Run("UNWIND [3, 1, 2] AS x RETURN collect(x) AS xs");
  const ValueList& xs = t.rows()[0][0].AsList();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0].AsInt(), 3);
  EXPECT_EQ(xs[1].AsInt(), 1);
  EXPECT_EQ(xs[2].AsInt(), 2);
}

TEST_F(ProjectionTest, UnwindNonListYieldsSingleRow) {
  // The paper's Figure 7 rule (including the null case; see README,
  // "Deliberate departures from the paper").
  Table t = Run("UNWIND 42 AS x RETURN x");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 42);
  Table t2 = Run("UNWIND null AS x RETURN x");
  ASSERT_EQ(t2.NumRows(), 1u);
  EXPECT_TRUE(t2.rows()[0][0].is_null());
  Table t3 = Run("UNWIND [] AS x RETURN x");
  EXPECT_EQ(t3.NumRows(), 0u);
}

TEST_F(ProjectionTest, NestedUnwindMultiplies) {
  Table t = Run("UNWIND [1, 2] AS x UNWIND [10, 20] AS y "
                "RETURN x * y AS p ORDER BY p");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(t.rows()[3][0].AsInt(), 40);
}

}  // namespace
}  // namespace gqlite
