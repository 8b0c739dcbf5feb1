#include <gtest/gtest.h>

#include "src/frontend/analyzer.h"
#include "src/frontend/ast_printer.h"
#include "src/frontend/parser.h"

namespace gqlite {
namespace {

using ast::Clause;
using ast::Expr;

/// Parses and returns the canonical unparse, failing the test on error.
std::string Canon(std::string_view q) {
  auto r = ParseQuery(q);
  EXPECT_TRUE(r.ok()) << "parse of: " << q << "\n  " << r.status().ToString();
  if (!r.ok()) return "<error>";
  return UnparseQuery(*r);
}

std::string CanonExpr(std::string_view e) {
  auto r = ParseExpression(e);
  EXPECT_TRUE(r.ok()) << "parse of: " << e << "\n  " << r.status().ToString();
  if (!r.ok()) return "<error>";
  return UnparseExpr(**r);
}

TEST(Parser, SimpleMatchReturn) {
  EXPECT_EQ(Canon("MATCH (n) RETURN n"), "MATCH (n) RETURN n");
  EXPECT_EQ(Canon("match (n) return n"), "MATCH (n) RETURN n");
}

TEST(Parser, NodePatternForms) {
  EXPECT_EQ(Canon("MATCH () RETURN 1"), "MATCH () RETURN 1");
  EXPECT_EQ(Canon("MATCH (n:Person) RETURN n"), "MATCH (n:Person) RETURN n");
  EXPECT_EQ(Canon("MATCH (n:Person:Male {name: 'x', age: 3}) RETURN n"),
            "MATCH (n:Person:Male {name: 'x', age: 3}) RETURN n");
  EXPECT_EQ(Canon("MATCH (:Person) RETURN 1"), "MATCH (:Person) RETURN 1");
}

TEST(Parser, RelPatternDirections) {
  EXPECT_EQ(Canon("MATCH (a)-->(b) RETURN a"), "MATCH (a)-->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)<--(b) RETURN a"), "MATCH (a)<--(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)--(b) RETURN a"), "MATCH (a)--(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[r]->(b) RETURN r"),
            "MATCH (a)-[r]->(b) RETURN r");
  EXPECT_EQ(Canon("MATCH (a)<-[:CITES]-(b) RETURN a"),
            "MATCH (a)<-[:CITES]-(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[r:KNOWS|LIKES]-(b) RETURN r"),
            "MATCH (a)-[r:KNOWS|LIKES]-(b) RETURN r");
  // Both-ways arrows are rejected.
  EXPECT_FALSE(ParseQuery("MATCH (a)<-[r]->(b) RETURN r").ok());
}

TEST(Parser, VarLengthForms) {
  // Figure 3: len ::= * | *d | *d1.. | *..d2 | *d1..d2.
  EXPECT_EQ(Canon("MATCH (a)-[*]->(b) RETURN a"),
            "MATCH (a)-[*..]->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[*2]->(b) RETURN a"),
            "MATCH (a)-[*2]->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[*2..]->(b) RETURN a"),
            "MATCH (a)-[*2..]->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[*..3]->(b) RETURN a"),
            "MATCH (a)-[*..3]->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[*1..2]->(b) RETURN a"),
            "MATCH (a)-[*1..2]->(b) RETURN a");
  EXPECT_EQ(Canon("MATCH (a)-[:KNOWS*1..2 {since: 1985}]-(b) RETURN a"),
            "MATCH (a)-[:KNOWS*1..2 {since: 1985}]-(b) RETURN a");
}

TEST(Parser, NamedPathAndPatternTuple) {
  EXPECT_EQ(Canon("MATCH p = (a)-[r]->(b), (c) RETURN p"),
            "MATCH p = (a)-[r]->(b), (c) RETURN p");
}

TEST(Parser, OptionalMatchAndWhere) {
  EXPECT_EQ(Canon("OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) RETURN s"),
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) RETURN s");
  EXPECT_EQ(Canon("MATCH (n) WHERE n.age > 3 RETURN n"),
            "MATCH (n) WHERE (n.age > 3) RETURN n");
}

TEST(Parser, PaperMainExampleQuery) {
  // The full §3 worked-example query must parse.
  const char* q = R"(
    MATCH (r:Researcher)
    OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
    WITH r, count(s) AS studentsSupervised
    MATCH (r)-[:AUTHORS]->(p1:Publication)
    OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
    RETURN r.name, studentsSupervised,
           count(DISTINCT p2) AS citedCount)";
  auto r = ParseQuery(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->parts.size(), 1u);
  EXPECT_EQ(r->parts[0].clauses.size(), 6u);
  auto info = Analyze(*r);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->updating);
  EXPECT_EQ(info->columns,
            (std::vector<std::string>{"r.name", "studentsSupervised",
                                      "citedCount"}));
}

TEST(Parser, PaperIndustryQueries) {
  // §3 network management.
  EXPECT_EQ(
      Canon("MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) "
            "RETURN svc, count(DISTINCT dep) AS dependents "
            "ORDER BY dependents DESC LIMIT 1"),
      "MATCH (svc:Service)<-[:DEPENDS_ON*..]-(dep:Service) "
      "RETURN svc, count(DISTINCT dep) AS dependents "
      "ORDER BY dependents DESC LIMIT 1");
  // §3 fraud detection (with the paper's fraudRing filter corrected to the
  // aliased name; see README, "Deliberate departures from the paper").
  const char* q = R"(
    MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo)
    WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address
    WITH pInfo,
         collect(accHolder.uniqueId) AS accountHolders,
         count(*) AS fraudRingCount
    WHERE fraudRingCount > 1
    RETURN accountHolders,
           labels(pInfo) AS personalInformation,
           fraudRingCount)";
  auto r = ParseQuery(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(Analyze(*r).ok()) << Analyze(*r).status().ToString();
}

TEST(Parser, WithProjectionAndOrdering) {
  EXPECT_EQ(Canon("MATCH (n) WITH n.x AS x ORDER BY x SKIP 1 LIMIT 2 "
                  "WHERE x > 0 RETURN x"),
            "MATCH (n) WITH n.x AS x ORDER BY x SKIP 1 LIMIT 2 "
            "WHERE (x > 0) RETURN x");
  EXPECT_EQ(Canon("MATCH (n) WITH DISTINCT n RETURN n"),
            "MATCH (n) WITH DISTINCT n RETURN n");
  EXPECT_EQ(Canon("MATCH (n) RETURN * ORDER BY n.x DESC"),
            "MATCH (n) RETURN * ORDER BY n.x DESC");
}

TEST(Parser, Unions) {
  auto r = ParseQuery("MATCH (a:X) RETURN a AS n UNION MATCH (a:Y) RETURN a "
                      "AS n UNION ALL MATCH (a:Z) RETURN a AS n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->parts.size(), 3u);
  ASSERT_EQ(r->union_all.size(), 2u);
  EXPECT_FALSE(r->union_all[0]);
  EXPECT_TRUE(r->union_all[1]);
}

TEST(Parser, Unwind) {
  EXPECT_EQ(Canon("UNWIND [1, 2, 3] AS x RETURN x"),
            "UNWIND [1, 2, 3] AS x RETURN x");
}

TEST(Parser, UpdateClauses) {
  EXPECT_EQ(Canon("CREATE (n:Person {name: 'x'})-[:KNOWS]->(m)"),
            "CREATE (n:Person {name: 'x'})-[:KNOWS]->(m)");
  EXPECT_EQ(Canon("MATCH (n) DELETE n"), "MATCH (n) DELETE n");
  EXPECT_EQ(Canon("MATCH (n) DETACH DELETE n"), "MATCH (n) DETACH DELETE n");
  EXPECT_EQ(Canon("MATCH (n) SET n.x = 1, n:Label, n += {y: 2}"),
            "MATCH (n) SET n.x = 1, n:Label, n += {y: 2}");
  EXPECT_EQ(Canon("MATCH (n) REMOVE n.x, n:Label"),
            "MATCH (n) REMOVE n.x, n:Label");
  EXPECT_EQ(Canon("MERGE (n:Person {name: 'x'}) ON CREATE SET n.c = 1 "
                  "ON MATCH SET n.m = 2"),
            "MERGE (n:Person {name: 'x'}) ON CREATE SET n.c = 1 "
            "ON MATCH SET n.m = 2");
}

TEST(Parser, Cypher10GraphClauses) {
  // Example 6.1 of the paper.
  const char* q = R"(
    FROM GRAPH soc_net AT "hdfs://host/soc_network"
    MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)
    WHERE abs(r2.since - r1.since) < $duration
    WITH DISTINCT a, b
    RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b))";
  auto r = ParseQuery(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->parts[0].clauses[0]->kind, Clause::Kind::kFromGraph);
  EXPECT_EQ(r->parts[0].clauses.back()->kind, Clause::Kind::kReturnGraph);
  // Second composed query of Example 6.1 (QUERY GRAPH alias).
  const char* q2 = R"(
    QUERY GRAPH friends
    MATCH (a)-[:SHARE_FRIEND]-(b)
    FROM GRAPH register AT "bolt://host/citizens"
    MATCH (a)-[:IN]->(c:City)<-[:IN]-(b)
    RETURN *)";
  EXPECT_TRUE(ParseQuery(q2).ok()) << ParseQuery(q2).status().ToString();
}

// ---- Expressions -----------------------------------------------------------

TEST(ParserExpr, Precedence) {
  EXPECT_EQ(CanonExpr("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(CanonExpr("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(CanonExpr("1 < 2 AND 3 < 4 OR x"),
            "(((1 < 2) AND (3 < 4)) OR x)");
  EXPECT_EQ(CanonExpr("NOT a AND b"), "((NOT a) AND b)");
  EXPECT_EQ(CanonExpr("a XOR b OR c"), "((a XOR b) OR c)");
  EXPECT_EQ(CanonExpr("2 ^ 3 ^ 2"), "(2 ^ (3 ^ 2))");  // right-assoc
  EXPECT_EQ(CanonExpr("-2 + 3"), "((- 2) + 3)");
  EXPECT_EQ(CanonExpr("1 - 2 - 3"), "((1 - 2) - 3)");
}

TEST(ParserExpr, StringsListsMaps) {
  EXPECT_EQ(CanonExpr("'a' STARTS WITH 'b'"), "('a' STARTS WITH 'b')");
  EXPECT_EQ(CanonExpr("x ENDS WITH 'b' OR x CONTAINS 'c'"),
            "((x ENDS WITH 'b') OR (x CONTAINS 'c'))");
  EXPECT_EQ(CanonExpr("1 IN [1, 2]"), "(1 IN [1, 2])");
  EXPECT_EQ(CanonExpr("{a: 1, b: 'x'}"), "{a: 1, b: 'x'}");
  EXPECT_EQ(CanonExpr("x[0]"), "x[0]");
  EXPECT_EQ(CanonExpr("x[1..3]"), "x[1..3]");
  EXPECT_EQ(CanonExpr("x[..3]"), "x[..3]");
  EXPECT_EQ(CanonExpr("x[1..]"), "x[1..]");
}

TEST(ParserExpr, NullChecks) {
  EXPECT_EQ(CanonExpr("x IS NULL"), "(x IS NULL)");
  EXPECT_EQ(CanonExpr("x IS NOT NULL"), "(x IS NOT NULL)");
}

TEST(ParserExpr, FunctionsAndAggregates) {
  EXPECT_EQ(CanonExpr("count(*)"), "count(*)");
  EXPECT_EQ(CanonExpr("COUNT(DISTINCT x)"), "count(DISTINCT x)");
  EXPECT_EQ(CanonExpr("coalesce(a, b, 1)"), "coalesce(a, b, 1)");
  EXPECT_EQ(CanonExpr("toUpper('x')"), "toupper('x')");
}

TEST(ParserExpr, CaseForms) {
  EXPECT_EQ(CanonExpr("CASE x WHEN 1 THEN 'a' ELSE 'b' END"),
            "CASE x WHEN 1 THEN 'a' ELSE 'b' END");
  EXPECT_EQ(CanonExpr("CASE WHEN x > 0 THEN 'pos' END"),
            "CASE WHEN (x > 0) THEN 'pos' END");
  EXPECT_FALSE(ParseExpression("CASE x END").ok());
}

TEST(ParserExpr, ListComprehension) {
  EXPECT_EQ(CanonExpr("[x IN list WHERE x > 0 | x * 2]"),
            "[x IN list WHERE (x > 0) | (x * 2)]");
  EXPECT_EQ(CanonExpr("[x IN list | x]"), "[x IN list | x]");
  EXPECT_EQ(CanonExpr("[x IN list WHERE x]"), "[x IN list WHERE x]");
}

TEST(ParserExpr, LabelPredicate) {
  EXPECT_EQ(CanonExpr("pInfo:SSN"), "pInfo:SSN");
  EXPECT_EQ(CanonExpr("n:A:B"), "n:A:B");
}

TEST(ParserExpr, PatternPredicate) {
  EXPECT_EQ(CanonExpr("(a)-[:KNOWS]->(b)"), "(a)-[:KNOWS]->(b)");
  EXPECT_EQ(CanonExpr("exists((a)-[:KNOWS]->())"),
            "exists((a)-[:KNOWS]->())");
  // Plain parenthesized arithmetic still works.
  EXPECT_EQ(CanonExpr("(a) - (b)"), "(a - b)");
}

TEST(ParserExpr, Parameters) {
  EXPECT_EQ(CanonExpr("$p + 1"), "($p + 1)");
}

// ---- Round-trip property ----------------------------------------------------

TEST(Parser, RoundTripFixpoint) {
  const char* queries[] = {
      "MATCH (a)-[r:KNOWS*1..2]->(b) WHERE a.x = 1 RETURN a, r ORDER BY a.x",
      "MATCH (a), (b) WHERE (a)-[:T]->(b) RETURN count(*)",
      "UNWIND [1, 2] AS x WITH x AS y WHERE y > 1 RETURN y LIMIT 1",
      "CREATE (a)-[:T {w: 1}]->(b) SET a.x = 2 REMOVE a:L",
      "MERGE (a {k: 1}) ON CREATE SET a.c = 1 RETURN a",
      "MATCH (n) RETURN DISTINCT n.name AS name UNION MATCH (m) RETURN "
      "m.name AS name",
  };
  for (const char* q : queries) {
    std::string once = Canon(q);
    std::string twice = Canon(once);
    EXPECT_EQ(once, twice) << "not a fixpoint: " << q;
  }
}

// ---- Errors -----------------------------------------------------------------

TEST(ParserErrors, Syntax) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("MATCH").ok());
  EXPECT_FALSE(ParseQuery("MATCH (a RETURN a").ok());
  EXPECT_FALSE(ParseQuery("MATCH (a) RETURN").ok());
  EXPECT_FALSE(ParseQuery("RETURN 1 RETURN 2").ok());
  EXPECT_FALSE(ParseQuery("MATCH (a) BOGUS x RETURN a").ok());
  EXPECT_FALSE(ParseQuery("MATCH (a) RETURN a extra").ok());
  EXPECT_FALSE(ParseQuery("MERGE (a), (b)").ok());
}

TEST(ParserErrors, MessagesCarryPosition) {
  auto r = ParseQuery("MATCH (a\nRETURN a");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos)
      << r.status().message();
}

// ---- Analyzer ---------------------------------------------------------------

TEST(Analyzer, UndefinedVariable) {
  auto q = ParseQuery("MATCH (a) RETURN b");
  ASSERT_TRUE(q.ok());
  auto info = Analyze(*q);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kSemanticError);
}

TEST(Analyzer, VariableOutOfScopeAfterWith) {
  // §3: "the variable s is no longer in scope after line 3".
  auto q = ParseQuery(
      "MATCH (r)-[:SUPERVISES]->(s) WITH r, count(s) AS c RETURN s");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, KindMismatch) {
  auto q = ParseQuery("MATCH (a)-[a]->(b) RETURN a");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, AggregateInWhereRejected) {
  auto q = ParseQuery("MATCH (a) WHERE count(a) > 1 RETURN a");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, NestedAggregateRejected) {
  auto q = ParseQuery("MATCH (a) RETURN count(count(a))");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, DuplicateColumnRejected) {
  auto q = ParseQuery("MATCH (a) RETURN a.x AS y, a.z AS y");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, WithRequiresAlias) {
  auto q = ParseQuery("MATCH (a) WITH a.x RETURN 1");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
  auto q2 = ParseQuery("MATCH (a) WITH a RETURN a");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(Analyze(*q2).ok());
}

TEST(Analyzer, UnionColumnMismatch) {
  auto q = ParseQuery("MATCH (a) RETURN a UNION MATCH (b) RETURN b");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
  auto q2 = ParseQuery("MATCH (a) RETURN a AS n UNION MATCH (b) RETURN b AS n");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(Analyze(*q2).ok());
}

TEST(Analyzer, UpdatingQueriesNeedNoReturn) {
  auto q = ParseQuery("CREATE (a)");
  ASSERT_TRUE(q.ok());
  auto info = Analyze(*q);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->updating);
  // Read-only query without RETURN is an error.
  auto q2 = ParseQuery("MATCH (a) WITH a AS b");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(Analyze(*q2).ok());
}

TEST(Analyzer, CreateRestrictions) {
  auto q = ParseQuery("MATCH (a) CREATE (a)-[:T*1..2]->(b)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
  auto q2 = ParseQuery("MATCH (a) CREATE (a)-[]->(b)");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(Analyze(*q2).ok());  // type required
  auto q3 = ParseQuery("MATCH (a) CREATE (a)-[:T]-(b)");
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE(Analyze(*q3).ok());  // direction required
}

TEST(Analyzer, ReturnStarNeedsScope) {
  auto q = ParseQuery("RETURN *");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

TEST(Analyzer, PatternPredicateVariablesMustBeBound) {
  auto q = ParseQuery("MATCH (a) WHERE (a)-[:T]->(zzz) RETURN a");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).ok());
}

// A pattern predicate's property maps are checked like any other
// expression, so the verdict cannot depend on whether candidate
// relationships exist at run time.
TEST(Analyzer, PatternPredicateMapVariablesMustBeBound) {
  for (const char* text :
       {"MATCH (r) WHERE (r)-[:NOPE]->({acmid: nosuchvar}) "
        "RETURN count(*) AS c",
        "MATCH (r) RETURN exists((r)-->({v: nosuchvar})) AS e"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    auto info = Analyze(*q);
    ASSERT_FALSE(info.ok()) << text;
    EXPECT_EQ(info.status().code(), StatusCode::kSemanticError) << text;
  }
  // A variable bound by an enclosing list comprehension is in scope there.
  auto q = ParseQuery(
      "MATCH (n) RETURN [x IN [1] WHERE (n)-->({v: x})] AS l");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto info = Analyze(*q);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(Analyzer, AggregateInPatternPredicateMapRejected) {
  for (const char* text :
       {"MATCH (r) WHERE (r)-->({v: count(*)}) RETURN r",
        "MATCH (r) RETURN exists((r)-->({v: count(*)})) AS e",
        "MATCH (r) RETURN exists((r)-->({v: collect(r.v)})) AS e"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    auto info = Analyze(*q);
    ASSERT_FALSE(info.ok()) << text;
    EXPECT_EQ(info.status().code(), StatusCode::kSemanticError) << text;
  }
}

}  // namespace
}  // namespace gqlite
