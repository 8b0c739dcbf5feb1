// Update-language tests (§2 "Data modification"): per-row clause
// semantics, CREATE binding, SET forms, REMOVE, DELETE rules, MERGE
// match-vs-create including ON CREATE/ON MATCH, and update statistics.

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

TEST(Create, BindsNewVariablesPerRow) {
  Database db = testutil::OpenOn();
  // One CREATE per driving row: 3 rows → 3 nodes.
  auto r = db.Execute("UNWIND [1, 2, 3] AS x CREATE (n:N {v: x}) "
                      "RETURN n.v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_created, 3);
  EXPECT_EQ(r->table.NumRows(), 3u);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 3u);
}

TEST(Create, SharedVariableAcrossTuplePaths) {
  Database db = testutil::OpenOn();
  auto r = db.Execute("CREATE (a:Hub), (a)-[:T]->(b:Leaf), "
                      "(a)-[:T]->(c:Leaf)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_created, 3);  // a created once
  EXPECT_EQ(r->stats.rels_created, 2);
  auto hub = db.Execute("MATCH (h:Hub)-[:T]->(l:Leaf) RETURN count(l)");
  EXPECT_EQ(hub->table.rows()[0][0].AsInt(), 2);
}

TEST(Create, AttachToBoundNode) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:Anchor {k: 1})").ok());
  auto r = db.Execute("MATCH (a:Anchor) CREATE (a)-[:OWNS]->(b:Item) RETURN b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_created, 1);
  EXPECT_EQ(r->stats.rels_created, 1);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 2u);
}

TEST(Create, LeftArrowDirection) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (a:A)<-[:PTS]-(b:B)").ok());
  auto r = db.Execute("MATCH (b:B)-[:PTS]->(a:A) RETURN count(*)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(Create, NamedPathValue) {
  Database db = testutil::OpenOn();
  auto r = db.Execute("CREATE p = (:X)-[:T]->(:Y) RETURN length(p) AS len");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(Create, NullPropertiesAreSkipped) {
  Database db = testutil::OpenOn();
  auto r = db.Execute("CREATE (n:N {a: null, b: 1}) RETURN keys(n)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsList().size(), 1u);
}

TEST(Set, PropertyOnNullIsNoOp) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  // OPTIONAL MATCH produces a null m; SET must skip it silently.
  auto r = db.Execute("MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(m) SET m.x = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.properties_set, 0);
}

TEST(Set, ReplaceVsMergeProperties) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:N {a: 1, b: 2})").ok());
  // += merges: a updated, c added, b kept.
  auto r = db.Execute("MATCH (n:N) SET n += {a: 10, c: 3} "
                      "RETURN n.a, n.b, n.c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(r->table.rows()[0][1].AsInt(), 2);
  EXPECT_EQ(r->table.rows()[0][2].AsInt(), 3);
  // = replaces: b and c gone.
  auto r2 = db.Execute("MATCH (n:N) SET n = {z: 9} "
                       "RETURN n.a, n.z, size(keys(n)) AS nkeys");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->table.rows()[0][0].is_null());
  EXPECT_EQ(r2->table.rows()[0][1].AsInt(), 9);
  EXPECT_EQ(r2->table.rows()[0][2].AsInt(), 1);
}

TEST(Set, CopyPropertiesFromNode) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:Src {x: 1, y: 2}), (:Dst {z: 3})").ok());
  auto r = db.Execute("MATCH (s:Src), (d:Dst) SET d = s RETURN d.x, d.y, d.z");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(r->table.rows()[0][1].AsInt(), 2);
  EXPECT_TRUE(r->table.rows()[0][2].is_null());  // replaced away
}

TEST(Set, NullValueRemovesProperty) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:N {a: 1})").ok());
  auto r = db.Execute("MATCH (n:N) SET n.a = null RETURN keys(n)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->table.rows()[0][0].AsList().empty());
}

TEST(Set, LabelsAndRelationshipProperties) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto r = db.Execute("MATCH (a:A)-[t:T]->() SET t.w = 5, a:Marked:Hot");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.properties_set, 1);
  EXPECT_EQ(r->stats.labels_added, 2);
  auto chk = db.Execute("MATCH (a:Marked:Hot)-[t:T]->() RETURN t.w");
  EXPECT_EQ(chk->table.rows()[0][0].AsInt(), 5);
}

TEST(Remove, PropertyAndLabel) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A:B {x: 1, y: 2})").ok());
  auto r = db.Execute("MATCH (n:A) REMOVE n.x, n:B");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.labels_removed, 1);
  auto chk = db.Execute("MATCH (n:A) RETURN n.x, n.y, labels(n)");
  EXPECT_TRUE(chk->table.rows()[0][0].is_null());
  EXPECT_EQ(chk->table.rows()[0][1].AsInt(), 2);
  EXPECT_EQ(chk->table.rows()[0][2].AsList().size(), 1u);
}

TEST(Delete, NullIsIgnored) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  auto r = db.Execute("MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(m) DELETE m");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 0);
}

TEST(Delete, RelationshipThenNode) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto r = db.Execute("MATCH (a:A)-[t:T]->(b:B) DELETE t, a, b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 2);
  EXPECT_EQ(r->stats.rels_deleted, 1);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 0u);
}

TEST(Delete, PathDeletesItsParts) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)-[:T]->(:C)").ok());
  auto r = db.Execute("MATCH p = (:A)-[:T]->(:B)-[:T]->(:C) DETACH DELETE p");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db.Snapshot()->NumNodes(), 0u);
  EXPECT_EQ(db.Snapshot()->NumRels(), 0u);
}

TEST(Delete, DoubleDeleteIsTolerated) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A), (:A)").ok());
  // Cartesian pairs delete each node twice; second delete is a no-op.
  auto r = db.Execute("MATCH (a:A), (b:A) DELETE a, b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 2);
}

TEST(Delete, DetachSelfLoopCountsOnce) {
  Database db = testutil::OpenOn();
  // A self-loop sits in BOTH adjacency directions of its node; the
  // pre-fix accounting read Degree(n) (== 2 here) instead of counting
  // what DetachDeleteNode actually removed.
  ASSERT_TRUE(db.Execute("CREATE (n:A)-[:R]->(n)").ok());
  auto r = db.Execute("MATCH (a:A) DETACH DELETE a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 1);
  EXPECT_EQ(r->stats.rels_deleted, 1);
  EXPECT_EQ(db.Snapshot()->NumRels(), 0u);
}

TEST(Delete, DetachBothEndpointsCountsRelOnce) {
  Database db = testutil::OpenOn();
  // DETACH DELETE of both endpoints in one statement: the shared
  // relationship is removed by the first node's detach; the second
  // node's detach must not count it again (pre-fix it contributed to
  // both nodes' pre-delete Degree).
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto r = db.Execute("MATCH (a:A), (b:B) DETACH DELETE a, b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 2);
  EXPECT_EQ(r->stats.rels_deleted, 1);
}

TEST(Delete, DetachMixedFanCountsDistinctRels) {
  Database db = testutil::OpenOn();
  // Hub with a self-loop plus one in- and one out-edge: 3 distinct
  // relationships (Degree would report 4).
  ASSERT_TRUE(db.Execute("CREATE (h:Hub)-[:L]->(h)").ok());
  ASSERT_TRUE(
      db.Execute("MATCH (h:Hub) CREATE (h)-[:O]->(:X), (:Y)-[:I]->(h)").ok());
  auto r = db.Execute("MATCH (h:Hub) DETACH DELETE h");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_deleted, 1);
  EXPECT_EQ(r->stats.rels_deleted, 3);
  EXPECT_EQ(db.Snapshot()->NumRels(), 0u);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 2u);
}

TEST(Merge, PerRowSemantics) {
  Database db = testutil::OpenOn();
  // Rows 1, 2, 2, 3: MERGE creates 1, 2, 3 once each — the second 2
  // matches the node the first 2 just created.
  auto r = db.Execute(
      "UNWIND [1, 2, 2, 3] AS x MERGE (n:K {v: x}) RETURN id(n)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_created, 3);
  EXPECT_EQ(r->table.NumRows(), 4u);
  EXPECT_TRUE(ValueEquivalent(r->table.rows()[1][0], r->table.rows()[2][0]));
}

TEST(Merge, MatchingPreservesMultiplicity) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:K {v: 1}), (:K {v: 1})").ok());
  // MERGE matching two nodes emits two rows (it is a MATCH when found).
  auto r = db.Execute("MERGE (n:K {v: 1}) RETURN count(n)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(r->stats.nodes_created, 0);
}

TEST(Merge, OnCreateOnMatchSetClauses) {
  Database db = testutil::OpenOn();
  auto r1 = db.Execute(
      "MERGE (n:C {k: 1}) ON CREATE SET n.created = 1 "
      "ON MATCH SET n.matched = coalesce(n.matched, 0) + 1 RETURN n.created, "
      "n.matched");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->table.rows()[0][0].AsInt(), 1);
  EXPECT_TRUE(r1->table.rows()[0][1].is_null());
  auto r2 = db.Execute(
      "MERGE (n:C {k: 1}) ON CREATE SET n.created = 1 "
      "ON MATCH SET n.matched = coalesce(n.matched, 0) + 1 RETURN n.matched");
  EXPECT_EQ(r2->table.rows()[0][0].AsInt(), 1);
  auto r3 = db.Execute(
      "MERGE (n:C {k: 1}) ON MATCH SET n.matched = n.matched + 1 "
      "RETURN n.matched");
  EXPECT_EQ(r3->table.rows()[0][0].AsInt(), 2);
}

TEST(Merge, PathPatternCreatesWhole) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:P {id: 1})").ok());
  // No (:P{id:1})-[:NEXT]->(:P{id:2}) exists: MERGE creates the whole
  // pattern — including a NEW :P{id:1} node? No: bound variables are
  // reused, unbound pattern parts are created. Here `a` is bound.
  auto r = db.Execute(
      "MATCH (a:P {id: 1}) MERGE (a)-[:NEXT]->(b:P {id: 2}) RETURN b.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.nodes_created, 1);
  EXPECT_EQ(r->stats.rels_created, 1);
  // Idempotent on re-run.
  auto r2 = db.Execute(
      "MATCH (a:P {id: 1}) MERGE (a)-[:NEXT]->(b:P {id: 2}) RETURN b.id");
  EXPECT_EQ(r2->stats.nodes_created, 0);
  EXPECT_EQ(r2->stats.rels_created, 0);
}

TEST(UpdateStats, Rendering) {
  UpdateStats s;
  EXPECT_EQ(s.ToString(), "no changes");
  EXPECT_FALSE(s.Any());
  s.nodes_created = 2;
  s.properties_set = 3;
  EXPECT_TRUE(s.Any());
  EXPECT_EQ(s.ToString(), "2 nodes created, 3 properties set");
}

TEST(UpdateThenRead, ClauseOrderIsTopDown) {
  Database db = testutil::OpenOn();
  // The MATCH after CREATE sees the newly created node (top-down clause
  // semantics, §2: "the same simple, top-down semantic model").
  auto r = db.Execute(
      "CREATE (:Fresh {v: 1}) WITH 1 AS one MATCH (f:Fresh) "
      "RETURN count(f)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(UpdateErrors, SetOnValueIsTypeError) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A {v: 1})").ok());
  auto r = db.Execute("MATCH (a:A) WITH a.v AS v SET v.x = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace gqlite
