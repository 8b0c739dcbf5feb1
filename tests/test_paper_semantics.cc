// Reproduces, as tests, every worked example of the paper: the §3
// step-by-step query walkthrough (Figure 2a/2b and the three inline
// binding tables), Examples 4.2–4.5 (pattern satisfaction on the Figure 4
// graph), Example 4.6 (MATCH driving-table semantics) and the §4.2
// complexity example (self-loop, non-repeating relationships).

#include <gtest/gtest.h>

#include "fixtures/generators.h"
#include "fixtures/paper_graphs.h"
#include "tests/test_interp_util.h"

namespace gqlite {
namespace {

using testutil::MakeTable;
using testutil::RunInterp;

Value N(const workload::PaperFigure1& f, int i) {
  return Value::Node(f.n[i]);
}
Value N4(const workload::PaperFigure4& f, int i) {
  return Value::Node(f.n[i]);
}

// ---- §3 walkthrough ---------------------------------------------------------

class PaperWalkthrough : public ::testing::Test {
 protected:
  void SetUp() override { fig1_ = workload::MakePaperFigure1Graph(); }
  workload::PaperFigure1 fig1_;
};

TEST_F(PaperWalkthrough, Line1MatchResearchers) {
  auto t = RunInterp(fig1_.graph, "MATCH (r:Researcher) RETURN r");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // "three bindings for the variable r, namely n1, n6, and n10".
  Table expect = MakeTable({"r"}, {{N(fig1_, 1)}, {N(fig1_, 6)},
                                   {N(fig1_, 10)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(PaperWalkthrough, Figure2aOptionalMatchBindings) {
  auto t = RunInterp(fig1_.graph,
                     "MATCH (r:Researcher) "
                     "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                     "RETURN r, s");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Figure 2a: (n1, null), (n6, n7), (n6, n8), (n10, n7).
  Table expect = MakeTable({"r", "s"}, {{N(fig1_, 1), Value::Null()},
                                        {N(fig1_, 6), N(fig1_, 7)},
                                        {N(fig1_, 6), N(fig1_, 8)},
                                        {N(fig1_, 10), N(fig1_, 7)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(PaperWalkthrough, Figure2bWithAggregation) {
  auto t = RunInterp(fig1_.graph,
                     "MATCH (r:Researcher) "
                     "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                     "WITH r, count(s) AS studentsSupervised "
                     "RETURN r, studentsSupervised");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Figure 2b: (n1, 0), (n6, 2), (n10, 1).
  Table expect = MakeTable(
      {"r", "studentsSupervised"},
      {{N(fig1_, 1), Value::Int(0)},
       {N(fig1_, 6), Value::Int(2)},
       {N(fig1_, 10), Value::Int(1)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(PaperWalkthrough, Line4AuthorsTable) {
  auto t = RunInterp(fig1_.graph,
                     "MATCH (r:Researcher) "
                     "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                     "WITH r, count(s) AS studentsSupervised "
                     "MATCH (r)-[:AUTHORS]->(p1:Publication) "
                     "RETURN r, studentsSupervised, p1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // §3 inline table: n10 (Thor) drops out; n1→n2, n6→n5, n6→n9.
  Table expect = MakeTable(
      {"r", "studentsSupervised", "p1"},
      {{N(fig1_, 1), Value::Int(0), N(fig1_, 2)},
       {N(fig1_, 6), Value::Int(2), N(fig1_, 5)},
       {N(fig1_, 6), Value::Int(2), N(fig1_, 9)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(PaperWalkthrough, Line5VariableLengthCitations) {
  auto t = RunInterp(fig1_.graph,
                     "MATCH (r:Researcher) "
                     "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                     "WITH r, count(s) AS studentsSupervised "
                     "MATCH (r)-[:AUTHORS]->(p1:Publication) "
                     "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
                     "RETURN r, studentsSupervised, p1, p2");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // §3 inline table — note the two identical (†) rows for p2 = n9, caused
  // by the two CITES paths n9→n4→n2 and n9→n5→n2 (bag semantics).
  Table expect = MakeTable(
      {"r", "studentsSupervised", "p1", "p2"},
      {{N(fig1_, 1), Value::Int(0), N(fig1_, 2), N(fig1_, 4)},
       {N(fig1_, 1), Value::Int(0), N(fig1_, 2), N(fig1_, 9)},
       {N(fig1_, 1), Value::Int(0), N(fig1_, 2), N(fig1_, 5)},
       {N(fig1_, 1), Value::Int(0), N(fig1_, 2), N(fig1_, 9)},
       {N(fig1_, 6), Value::Int(2), N(fig1_, 5), N(fig1_, 9)},
       {N(fig1_, 6), Value::Int(2), N(fig1_, 9), Value::Null()}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(PaperWalkthrough, FinalResultTable) {
  auto t = RunInterp(fig1_.graph,
                     "MATCH (r:Researcher) "
                     "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                     "WITH r, count(s) AS studentsSupervised "
                     "MATCH (r)-[:AUTHORS]->(p1:Publication) "
                     "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
                     "RETURN r.name, studentsSupervised, "
                     "count(DISTINCT p2) AS citedCount");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // The paper's final table: Nils 0 3 / Elin 2 1.
  Table expect = MakeTable(
      {"r.name", "studentsSupervised", "citedCount"},
      {{Value::String("Nils"), Value::Int(0), Value::Int(3)},
       {Value::String("Elin"), Value::Int(2), Value::Int(1)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

// ---- §4.2 Examples on the Figure 4 graph -----------------------------------

class Figure4Examples : public ::testing::Test {
 protected:
  void SetUp() override { fig4_ = workload::MakePaperFigure4Graph(); }
  workload::PaperFigure4 fig4_;
};

TEST_F(Figure4Examples, Example42NodePatternSatisfaction) {
  // χ1 = (x:Teacher): satisfied by n1, n3, n4 but not n2.
  auto t = RunInterp(fig4_.graph, "MATCH (x:Teacher) RETURN x");
  ASSERT_TRUE(t.ok());
  Table expect = MakeTable(
      {"x"}, {{N4(fig4_, 1)}, {N4(fig4_, 3)}, {N4(fig4_, 4)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
  // χ2 = (y): satisfied by every node.
  auto t2 = RunInterp(fig4_.graph, "MATCH (y) RETURN y");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->NumRows(), 4u);
}

TEST_F(Figure4Examples, Example43RigidPattern) {
  // (x:Teacher)-[:KNOWS*2]->(y): unique match x=n1, y=n3 via n1 r1 n2 r2 n3.
  auto t = RunInterp(fig4_.graph,
                     "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y");
  ASSERT_TRUE(t.ok());
  Table expect = MakeTable({"x", "y"}, {{N4(fig4_, 1), N4(fig4_, 3)},
                                        {N4(fig4_, 2), N4(fig4_, 4)}});
  // Note: the example text only discusses x=n1; the pattern also matches
  // x=n2? No — x must be a Teacher, and n2 is a Student. Only teachers:
  // n1→n3 (2 hops) and n3 has only 1 outgoing hop. So exactly one row.
  expect = MakeTable({"x", "y"}, {{N4(fig4_, 1), N4(fig4_, 3)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(Figure4Examples, Example44VariableLengthTwoHops) {
  // (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher).
  auto t = RunInterp(
      fig4_.graph,
      "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) "
      "RETURN x, z, y");
  ASSERT_TRUE(t.ok());
  // p1 = n1r1n2r2n3 (z=n2, y=n3); p2 = n1..n4 with z=n2 (split 1+2) and
  // z=n3 (split 2+1); also n3→n4? x=n3: 1 hop to n4 then need ≥1 more —
  // n4 has no out edges. So rows: (n1,n2,n3), (n1,n2,n4), (n1,n3,n4).
  Table expect = MakeTable({"x", "z", "y"},
                           {{N4(fig4_, 1), N4(fig4_, 2), N4(fig4_, 3)},
                            {N4(fig4_, 1), N4(fig4_, 2), N4(fig4_, 4)},
                            {N4(fig4_, 1), N4(fig4_, 3), N4(fig4_, 4)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(Figure4Examples, Example45BagMultiplicity) {
  // Same pattern with the middle node anonymous: the path n1r1n2r2n3r3n4
  // satisfies the pattern under TWO rigid refinements (splits 1+2 and
  // 2+1), so the row (n1, n4) appears TWICE (bag semantics).
  auto t = RunInterp(
      fig4_.graph,
      "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) "
      "RETURN x, y");
  ASSERT_TRUE(t.ok());
  Table expect = MakeTable({"x", "y"},
                           {{N4(fig4_, 1), N4(fig4_, 3)},
                            {N4(fig4_, 1), N4(fig4_, 4)},
                            {N4(fig4_, 1), N4(fig4_, 4)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

TEST_F(Figure4Examples, Example46DrivingTableSemantics) {
  // [[MATCH (x)-[:KNOWS*]->(y)]] applied to the table {(x:n1); (x:n3)}.
  // We realize the driving table with UNWIND over the node ids.
  auto t = RunInterp(
      fig4_.graph,
      "MATCH (x) WHERE id(x) IN [0, 2] "  // n1 has id 0, n3 has id 2
      "MATCH (x)-[:KNOWS*]->(y) RETURN x, y");
  ASSERT_TRUE(t.ok());
  // Result rows: (n1,n2), (n1,n3), (n1,n4), (n3,n4).
  Table expect = MakeTable({"x", "y"}, {{N4(fig4_, 1), N4(fig4_, 2)},
                                        {N4(fig4_, 1), N4(fig4_, 3)},
                                        {N4(fig4_, 1), N4(fig4_, 4)},
                                        {N4(fig4_, 3), N4(fig4_, 4)}});
  EXPECT_TRUE(t->SameBag(expect)) << t->ToString();
}

// ---- §4.2 complexity discussion ---------------------------------------------

TEST(ComplexityExamples, SelfLoopZeroOrMore) {
  // One node n with a self-loop. Under Cypher's relationship-isomorphism
  // semantics, (x)-[*0..]->(x) has exactly TWO matches: traversing the
  // loop zero times and once ("two matches will be returned").
  workload::SelfLoop s = workload::MakeSelfLoopGraph();
  auto t = RunInterp(s.graph, "MATCH (x)-[*0..]->(x) RETURN x");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u) << t->ToString();
}

TEST(ComplexityExamples, HomomorphismUnboundedNeedsCap) {
  // Under homomorphism the same pattern matches once per traversal count:
  // with a cap of k it yields k+1 rows (0..k traversals).
  workload::SelfLoop s = workload::MakeSelfLoopGraph();
  MatchOptions opts;
  opts.morphism = Morphism::kHomomorphism;
  opts.max_var_length = 5;
  auto t = RunInterp(s.graph, "MATCH (x)-[*0..]->(x) RETURN x", {}, opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 6u) << t->ToString();
}

TEST(ComplexityExamples, EdgeIsoForbidsRelReuseAcrossTuple) {
  // (a)-[r]->(b), (c)-[s]->(d): r and s can never bind the same
  // relationship in one match (relationship isomorphism across the tuple).
  workload::SelfLoop s = workload::MakeSelfLoopGraph();
  auto t = RunInterp(s.graph,
                     "MATCH (a)-[r]->(b), (c)-[s]->(d) RETURN r, s");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 0u);
  // Under homomorphism it matches (both bind the loop).
  MatchOptions opts;
  opts.morphism = Morphism::kHomomorphism;
  auto t2 = RunInterp(s.graph,
                      "MATCH (a)-[r]->(b), (c)-[s]->(d) RETURN r, s", {},
                      opts);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->NumRows(), 1u);
}

// ---- §3 industry queries on synthetic workloads ------------------------------

TEST(IndustryQueries, NetworkManagementShape) {
  workload::DependencyConfig cfg;
  cfg.layers = 3;
  cfg.per_layer = 4;
  cfg.fanout = 2;
  GraphPtr g = workload::MakeDependencyNetwork(cfg);
  auto t = RunInterp(g,
                     "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) "
                     "RETURN svc.name AS name, count(DISTINCT dep) AS "
                     "dependents ORDER BY dependents DESC LIMIT 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 1u);
  // The tier-0 "core" service is depended on by everything above it.
  EXPECT_EQ(t->rows()[0][0].AsString(), "svc-0-0");
  EXPECT_EQ(t->rows()[0][1].AsInt(), 8);  // all 2*4 services of tiers 1-2
}

TEST(IndustryQueries, FraudDetectionRings) {
  workload::FraudConfig cfg;
  cfg.num_holders = 30;
  cfg.num_rings = 3;
  cfg.ring_size = 3;
  GraphPtr g = workload::MakeFraudGraph(cfg);
  auto t = RunInterp(
      g,
      "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo) "
      "WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address "
      "WITH pInfo, collect(accHolder.uniqueId) AS accountHolders, "
      "count(*) AS fraudRingCount "
      "WHERE fraudRingCount > 1 "
      "RETURN accountHolders, labels(pInfo) AS personalInformation, "
      "fraudRingCount");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // 3 shared SSNs + 2 shared phones (rings 0 and 2 share phones).
  EXPECT_EQ(t->NumRows(), 5u) << t->ToString();
  for (const auto& row : t->rows()) {
    EXPECT_GE(row[2].AsInt(), 2);
    EXPECT_EQ(row[0].AsList().size(), static_cast<size_t>(row[2].AsInt()));
  }
}

}  // namespace
}  // namespace gqlite
