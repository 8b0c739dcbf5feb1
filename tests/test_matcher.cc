// Direct tests of the pattern matcher — match(π̄, G, u) per §4.2: bound
// variables, directions, self-loops, zero-length hops, property patterns,
// tuple-wide relationship isomorphism, morphism modes, early-exit
// existential matching.

#include <gtest/gtest.h>

#include "fixtures/generators.h"
#include "fixtures/paper_graphs.h"
#include "src/frontend/parser.h"
#include "src/pattern/matcher.h"

namespace gqlite {
namespace {

/// Parses the pattern of "MATCH <pattern> RETURN 1" and matches it.
struct MatchResult {
  std::vector<std::string> columns;
  std::vector<BindingRow> rows;
};

Result<MatchResult> Match(const PropertyGraph& g, const std::string& pattern,
                          const MapEnvironment& env = {},
                          MatchOptions opts = {}) {
  GQL_ASSIGN_OR_RETURN(ast::Query q,
                       ParseQuery("MATCH " + pattern + " RETURN 1"));
  const auto& m = static_cast<const ast::MatchClause&>(
      *q.parts[0].clauses[0]);
  MatchResult out;
  out.columns = NewPatternColumns(m.pattern, env);
  EvalContext ctx;
  ctx.graph = &g;
  static ValueMap no_params;
  ctx.parameters = &no_params;
  Status st = MatchPattern(m.pattern, g, env, ctx, opts, out.columns,
                           [&](const BindingRow& row) -> Result<bool> {
                             out.rows.push_back(row);
                             return true;
                           });
  GQL_RETURN_IF_ERROR(st);
  return out;
}

size_t CountMatches(const PropertyGraph& g, const std::string& pattern,
                    const MapEnvironment& env = {}, MatchOptions opts = {}) {
  auto r = Match(g, pattern, env, opts);
  EXPECT_TRUE(r.ok()) << pattern << ": " << r.status().ToString();
  return r.ok() ? r->rows.size() : 0;
}

TEST(Matcher, EmptyGraphNoMatches) {
  PropertyGraph g;
  EXPECT_EQ(CountMatches(g, "(a)"), 0u);
  EXPECT_EQ(CountMatches(g, "(a)-[r]->(b)"), 0u);
}

TEST(Matcher, SingleNodePatterns) {
  PropertyGraph g;
  g.CreateNode({"A"});
  g.CreateNode({"A", "B"});
  g.CreateNode({"B"});
  EXPECT_EQ(CountMatches(g, "(x)"), 3u);
  EXPECT_EQ(CountMatches(g, "(x:A)"), 2u);
  EXPECT_EQ(CountMatches(g, "(x:A:B)"), 1u);
  EXPECT_EQ(CountMatches(g, "(x:C)"), 0u);
  EXPECT_EQ(CountMatches(g, "()"), 3u);  // anonymous still enumerates
}

TEST(Matcher, PropertyConstraints) {
  PropertyGraph g;
  g.CreateNode({}, {{"v", Value::Int(1)}});
  g.CreateNode({}, {{"v", Value::Int(2)}});
  g.CreateNode({}, {{"w", Value::Int(1)}});
  EXPECT_EQ(CountMatches(g, "(x {v: 1})"), 1u);
  EXPECT_EQ(CountMatches(g, "(x {v: 9})"), 0u);
  // Absent property is null: ι(n,k) = P(k) must be TRUE, null fails.
  EXPECT_EQ(CountMatches(g, "(x {missing: 1})"), 0u);
}

TEST(Matcher, PropertyExpressionsSeeOuterBindings) {
  PropertyGraph g;
  g.CreateNode({}, {{"v", Value::Int(7)}});
  MapEnvironment env;
  env.Set("target", Value::Int(7));
  EXPECT_EQ(CountMatches(g, "(x {v: target})", env), 1u);
  env.Set("target", Value::Int(8));
  EXPECT_EQ(CountMatches(g, "(x {v: target})", env), 0u);
}

TEST(Matcher, Directions) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T").value();
  MapEnvironment env;
  env.Set("a", Value::Node(a));
  EXPECT_EQ(CountMatches(g, "(a)-[r]->(x)", env), 1u);
  EXPECT_EQ(CountMatches(g, "(a)<-[r]-(x)", env), 0u);
  EXPECT_EQ(CountMatches(g, "(a)-[r]-(x)", env), 1u);
  MapEnvironment envb;
  envb.Set("b", Value::Node(b));
  EXPECT_EQ(CountMatches(g, "(b)<-[r]-(x)", envb), 1u);
}

TEST(Matcher, SelfLoopCountedOncePerDirection) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  g.CreateRelationship(a, a, "LOOP").value();
  EXPECT_EQ(CountMatches(g, "(x)-[r]->(y)"), 1u);
  EXPECT_EQ(CountMatches(g, "(x)<-[r]-(y)"), 1u);
  EXPECT_EQ(CountMatches(g, "(x)-[r]-(y)"), 1u);  // undirected: still once
  EXPECT_EQ(CountMatches(g, "(x)-[r]->(x)"), 1u);
}

TEST(Matcher, BoundNodeRestrictsStart) {
  workload::PaperFigure4 f = workload::MakePaperFigure4Graph();
  MapEnvironment env;
  env.Set("x", Value::Node(f.n[1]));
  auto r = Match(*f.graph, "(x)-[:KNOWS]->(y)", env);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->columns, std::vector<std::string>{"y"});
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsNode(), f.n[2]);
}

TEST(Matcher, BoundNullYieldsNoMatch) {
  workload::PaperFigure4 f = workload::MakePaperFigure4Graph();
  MapEnvironment env;
  env.Set("x", Value::Null());
  EXPECT_EQ(CountMatches(*f.graph, "(x)-[:KNOWS]->(y)", env), 0u);
}

TEST(Matcher, BoundRelationshipMustAgree) {
  workload::PaperFigure4 f = workload::MakePaperFigure4Graph();
  MapEnvironment env;
  env.Set("r", Value::Relationship(f.r[2]));
  auto m = Match(*f.graph, "(a)-[r]->(b)", env);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->rows.size(), 1u);
  // Columns are free(π) − dom(u) = {a, b}.
  EXPECT_EQ(m->columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(m->rows[0][0].AsNode(), f.n[2]);
  EXPECT_EQ(m->rows[0][1].AsNode(), f.n[3]);
}

TEST(Matcher, SharedVariableJoinsWithinPattern) {
  // (a)-[]->(b)-[]->(a): closes a 2-cycle.
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T").value();
  g.CreateRelationship(b, a, "T").value();
  EXPECT_EQ(CountMatches(g, "(a)-[]->(b)-[]->(a)"), 2u);  // from a and from b
  // Repeated rigid rel variable: both hops must bind the same rel — never
  // possible here because the two hops need distinct endpoints order.
  EXPECT_EQ(CountMatches(g, "(a)-[r]->(b)<-[r]-(a)"), 0u);
}

TEST(Matcher, TupleRelationshipIsomorphism) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T").value();
  // One relationship cannot serve both tuple entries…
  EXPECT_EQ(CountMatches(g, "(p)-[x]->(q), (s)-[y]->(t)"), 0u);
  // …but two can, in both assignments.
  g.CreateRelationship(a, b, "T").value();
  EXPECT_EQ(CountMatches(g, "(p)-[x]->(q), (s)-[y]->(t)"), 2u);
}

TEST(Matcher, ZeroLengthBindsEndpointsTogether) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"A"});
  g.CreateNode({"B"});
  auto m = Match(g, "(x:A)-[rs*0..0]->(y)");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->rows.size(), 1u);
  // x = y = a; rs = empty list (the m = 0 case of §4.2).
  int xi = -1, yi = -1, ri = -1;
  for (size_t i = 0; i < m->columns.size(); ++i) {
    if (m->columns[i] == "x") xi = static_cast<int>(i);
    if (m->columns[i] == "y") yi = static_cast<int>(i);
    if (m->columns[i] == "rs") ri = static_cast<int>(i);
  }
  ASSERT_GE(xi, 0);
  ASSERT_GE(yi, 0);
  ASSERT_GE(ri, 0);
  EXPECT_EQ(m->rows[0][xi].AsNode(), a);
  EXPECT_EQ(m->rows[0][yi].AsNode(), a);
  EXPECT_TRUE(m->rows[0][ri].is_list());
  EXPECT_TRUE(m->rows[0][ri].AsList().empty());
}

TEST(Matcher, ZeroLengthRespectsTargetConstraints) {
  PropertyGraph g;
  g.CreateNode({"A"});
  // (x:A)-[*0..]->(y:B): zero hops requires y's labels at x — fails.
  EXPECT_EQ(CountMatches(g, "(x:A)-[*0..1]->(y:B)"), 0u);
}

TEST(Matcher, VarLengthRangeSemantics) {
  GraphPtr chain = workload::MakeChain(5);  // 4 rels
  // *d means exactly d (§4.2: I = (d, d)).
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*2]->(b)"), 3u);
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*1..2]->(b)"), 7u);
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*..2]->(b)"), 7u);   // lo = 1
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*2..]->(b)"), 6u);   // 3+2+1
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*]->(b)"), 10u);     // 4+3+2+1
  EXPECT_EQ(CountMatches(*chain, "(a)-[:NEXT*0..]->(b)"), 15u);  // + 5 zero
}

TEST(Matcher, VarLengthBindsRelationshipList) {
  GraphPtr chain = workload::MakeChain(3);
  auto m = Match(*chain, "(a {idx: 0})-[rs:NEXT*2]->(b)");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->rows.size(), 1u);
  int ri = -1;
  for (size_t i = 0; i < m->columns.size(); ++i) {
    if (m->columns[i] == "rs") ri = static_cast<int>(i);
  }
  ASSERT_GE(ri, 0);
  ASSERT_TRUE(m->rows[0][ri].is_list());
  EXPECT_EQ(m->rows[0][ri].AsList().size(), 2u);
}

TEST(Matcher, NamedPathBinding) {
  GraphPtr chain = workload::MakeChain(3);
  auto m = Match(*chain, "p = (a {idx: 0})-[:NEXT*2]->(b)");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->rows.size(), 1u);
  int pi = -1;
  for (size_t i = 0; i < m->columns.size(); ++i) {
    if (m->columns[i] == "p") pi = static_cast<int>(i);
  }
  ASSERT_GE(pi, 0);
  ASSERT_TRUE(m->rows[0][pi].is_path());
  const Path& p = m->rows[0][pi].AsPath();
  EXPECT_EQ(p.nodes.size(), 3u);
  EXPECT_EQ(p.rels.size(), 2u);
}

TEST(Matcher, RelPropertyConstraints) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T", {{"w", Value::Int(1)}}).value();
  g.CreateRelationship(a, b, "T", {{"w", Value::Int(2)}}).value();
  EXPECT_EQ(CountMatches(g, "(x)-[r:T {w: 1}]->(y)"), 1u);
  EXPECT_EQ(CountMatches(g, "(x)-[r:T {w: 3}]->(y)"), 0u);
  // Var-length: every step must satisfy the property map.
  NodeId c = g.CreateNode();
  g.CreateRelationship(b, c, "T", {{"w", Value::Int(1)}}).value();
  EXPECT_EQ(CountMatches(g, "(x)-[rs:T*2 {w: 1}]->(y)"), 1u);
  EXPECT_EQ(CountMatches(g, "(x)-[rs:T*2 {w: 2}]->(y)"), 0u);
}

TEST(Matcher, TypeDisjunction) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T").value();
  g.CreateRelationship(a, b, "U").value();
  g.CreateRelationship(a, b, "V").value();
  EXPECT_EQ(CountMatches(g, "(x)-[r:T|U]->(y)"), 2u);
  EXPECT_EQ(CountMatches(g, "(x)-[r:T|U|V]->(y)"), 3u);
}

TEST(Matcher, NodeIsomorphismForbidsRepeatedNodes) {
  GraphPtr cycle = workload::MakeCycle(3);
  MatchOptions node_iso;
  node_iso.morphism = Morphism::kNodeIsomorphism;
  // A 3-cycle closes only by repeating the start node: edge-iso allows,
  // node-iso forbids.
  EXPECT_EQ(CountMatches(*cycle, "(a)-[*3]->(a)"), 3u);
  EXPECT_EQ(CountMatches(*cycle, "(a)-[*3]->(a)", {}, node_iso), 0u);
  // Open paths are unaffected.
  EXPECT_EQ(CountMatches(*cycle, "(a)-[*2]->(b)", {}, node_iso), 3u);
}

TEST(Matcher, HomomorphismAllowsRelReuse) {
  GraphPtr chain = workload::MakeChain(2);  // one rel
  MatchOptions hom;
  hom.morphism = Morphism::kHomomorphism;
  hom.max_var_length = 4;
  EXPECT_EQ(CountMatches(*chain, "(a)-[r1]->(b), (c)-[r2]->(d)"), 0u);
  EXPECT_EQ(CountMatches(*chain, "(a)-[r1]->(b), (c)-[r2]->(d)", {}, hom),
            1u);
}

TEST(Matcher, ExistsMatchShortCircuits) {
  GraphPtr clique = workload::MakeClique(6);
  auto q = ParseQuery("MATCH (a)-[*1..4]->(b) RETURN 1");
  ASSERT_TRUE(q.ok());
  const auto& m =
      static_cast<const ast::MatchClause&>(*q->parts[0].clauses[0]);
  MapEnvironment env;
  EvalContext ctx;
  ctx.graph = clique.get();
  MatchOptions opts;
  auto r = ExistsMatch(m.pattern, *clique, env, ctx, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);  // and it returns quickly, without enumerating all
  PropertyGraph empty;
  auto r2 = ExistsMatch(m.pattern, empty, env, ctx, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(Matcher, DeletedEntitiesNeverMatch) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"A"});
  NodeId b = g.CreateNode({"A"});
  ASSERT_TRUE(g.DeleteNode(a).ok());
  EXPECT_EQ(CountMatches(g, "(x:A)"), 1u);
  MapEnvironment env;
  env.Set("x", Value::Node(a));  // bound to a deleted node
  EXPECT_EQ(CountMatches(g, "(x)", env), 0u);
  (void)b;
}

TEST(Matcher, ColumnsAreAppearanceOrdered) {
  workload::PaperFigure4 f = workload::MakePaperFigure4Graph();
  auto m = Match(*f.graph, "q = (a)-[r:KNOWS]->(b)");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->columns, (std::vector<std::string>{"q", "a", "r", "b"}));
}

}  // namespace
}  // namespace gqlite
