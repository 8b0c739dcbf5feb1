// Plan-shape regression fixtures: canonical graphs whose statistics make
// one plan clearly cheapest, with the EXPLAIN output asserted — operator
// choice (Expand vs HashJoinExpand), anchor selection, expand direction,
// and the per-operator `est. rows` annotations. A cost-model change that
// flips one of these shapes should have to explain itself here.

#include <gtest/gtest.h>

#include <string>

#include "src/core/engine.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

/// 60 :A nodes, 2 :B nodes, one :R edge into each :B. Anchoring at :B
/// and expanding right-to-left touches ~2 rows; left-to-right ~60.
Database MakeLopsidedDatabase(EngineOptions opts) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> as;
  for (int i = 0; i < 60; ++i) {
    as.push_back(g->CreateNode({"A"}, {{"id", Value::Int(i)}}));
  }
  for (int i = 0; i < 2; ++i) {
    NodeId b = g->CreateNode({"B"}, {{"id", Value::Int(100 + i)}});
    EXPECT_TRUE(g->CreateRelationship(as[i], b, "R", {}).ok());
  }
  return testutil::OpenOn(g, std::move(opts));
}

TEST(PlanShapes, CostModeAnchorsAtTheSelectiveLabel) {
  Database db = MakeLopsidedDatabase(EngineOptions{});
  auto e = db.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // Anchor at :B (2 nodes), expand the hop right-to-left.
  EXPECT_NE(e->find("NodeByLabelScan(b:B)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(b<-:R<-a)"), std::string::npos) << *e;
  EXPECT_NE(e->find("est. rows"), std::string::npos) << *e;
}

TEST(PlanShapes, ForceRightOverridesTheCostChoice) {
  EngineOptions opts;
  opts.direction_policy = DirectionPolicy::kForceRight;
  Database db = MakeLopsidedDatabase(std::move(opts));
  auto e = db.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:R->b)"), std::string::npos) << *e;
}

TEST(PlanShapes, UniquePropertyEqualityWinsTheAnchor) {
  Database db = MakeLopsidedDatabase(EngineOptions{});
  // b:B is rare (2 nodes), but a.id = 3 is unique (NDV 62 over 62
  // nodes): ~60/62 < 2 candidate rows, so the anchor goes to a.
  auto e = db.Explain("MATCH (a:A)-[:R]->(b:B) WHERE a.id = 3 RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:R->b)"), std::string::npos) << *e;
}

/// Hub nodes drowning in untyped :X edges while :T is rare: an
/// adjacency expand from (a) scans ~200 edges per row to find the one
/// :T, a hash-join expand reads the 10-row :T relationship store once.
Database MakeNoisyAdjacencyDatabase(EngineOptions opts) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(g->CreateNode({"N"}, {{"id", Value::Int(i)}}));
  }
  for (int i = 0; i < 40; ++i) {
    for (int e = 0; e < 50; ++e) {
      EXPECT_TRUE(
          g->CreateRelationship(nodes[i], nodes[(i + e + 1) % 40], "X", {})
              .ok());
    }
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        g->CreateRelationship(nodes[i], nodes[(i + 7) % 40], "T", {}).ok());
  }
  return testutil::OpenOn(g, std::move(opts));
}

TEST(PlanShapes, FanOutFrontierPicksHashJoin) {
  // The hash join builds over the WHOLE relationship store, so it only
  // wins once the frontier outgrows the node count: after the :X fan-out
  // the frontier is ~2000 rows, and an adjacency expand of the :T hop
  // would rescan ~50 noisy edges per row. Direction is pinned so the
  // planner can't sidestep the scenario by walking the chain backwards.
  EngineOptions opts;
  opts.direction_policy = DirectionPolicy::kForceRight;
  Database db = MakeNoisyAdjacencyDatabase(std::move(opts));
  auto e = db.Explain("MATCH (a:N)-[:X]->(b)-[:T]->(c) RETURN c.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("HashJoinExpand"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:X->b)"), std::string::npos) << *e;
}

TEST(PlanShapes, ForcedAdjacencyOverridesTheJoinChoice) {
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kAdjacency;
  Database db = MakeNoisyAdjacencyDatabase(std::move(opts));
  auto e = db.Explain("MATCH (a:N)-[:T]->(b) RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->find("HashJoinExpand"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand("), std::string::npos) << *e;
}

TEST(PlanShapes, ForcedHashJoinAppliesToRigidHops) {
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  Database db = MakeLopsidedDatabase(std::move(opts));
  auto e = db.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("HashJoinExpand"), std::string::npos) << *e;
}

TEST(PlanShapes, EstimatesShrinkThroughSelectiveFilters) {
  Database db = MakeLopsidedDatabase(EngineOptions{});
  // The scan filters in place: its line names the predicate and prints
  // the scan-domain estimate (the label count) next to the estimate
  // after the predicate, which is smaller.
  auto e = db.Explain("MATCH (a:A) WHERE a.id = 3 RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  size_t scan = e->find("NodeByLabelScan(a:A) WHERE (a.id = 3)  (");
  ASSERT_NE(scan, std::string::npos) << *e;
  size_t scanned = e->find("est. scanned: ", scan);
  size_t rows = e->find("est. rows: ", scan);
  ASSERT_NE(scanned, std::string::npos) << *e;
  ASSERT_NE(rows, std::string::npos) << *e;
  double scanned_est = std::stod(e->substr(scanned + 14));
  double rows_est = std::stod(e->substr(rows + 11));
  EXPECT_EQ(scanned_est, 60) << *e;
  EXPECT_LT(rows_est, scanned_est) << *e;
  EXPECT_EQ(e->find("Filter"), std::string::npos) << *e;
}

TEST(PlanShapes, VarLengthKeepsAdjacencyUnderForcedHashJoin) {
  // HashJoinExpand has no var-length form; the force must not break
  // var-length hops (they stay VarLengthExpand).
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  Database db = MakeLopsidedDatabase(std::move(opts));
  auto e = db.Explain("MATCH (a:B)-[:R*1..2]->(b) RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("VarLengthExpand"), std::string::npos) << *e;
  EXPECT_EQ(e->find("HashJoinExpand"), std::string::npos) << *e;
}

/// A symmetric :L-[:T]->:L graph whose :L nodes also have untyped :U
/// out-edges, so an adjacency walk from `a` scans more entries than one
/// from `b`. A search that ranked anchors by expand cost alone, blind to
/// WHERE range predicates, would anchor at `b`.
Database MakeSymmetricRangeDatabase() {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ls;
  for (int i = 0; i < 40; ++i) {
    ls.push_back(g->CreateNode({"L"}, {{"x", Value::Int(i)}}));
  }
  std::vector<NodeId> ms;
  for (int i = 0; i < 10; ++i) ms.push_back(g->CreateNode({"M"}, {}));
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(g->CreateRelationship(ls[i], ls[(i + 1) % 40], "T", {}).ok());
    EXPECT_TRUE(g->CreateRelationship(ls[i], ls[(i + 3) % 40], "T", {}).ok());
    for (int u = 0; u < 3; ++u) {
      EXPECT_TRUE(
          g->CreateRelationship(ls[i], ms[(i + u) % 10], "U", {}).ok());
    }
  }
  return testutil::OpenOn(g, EngineOptions{});
}

TEST(PlanShapes, RangeFilteredSideOfASymmetricPatternIsTheAnchor) {
  // The analytic distinct-friends read has this shape: the range on
  // a.x is the only selective predicate, so the plan anchors at `a` and
  // applies both range predicates, inside the scan, before expanding.
  Database db = MakeSymmetricRangeDatabase();
  auto e = db.Explain(
      "MATCH (a:L)-[:T]->(b:L) WHERE a.x >= $lo AND a.x < $hi RETURN b.x",
      {{"lo", Value::Int(4)}, {"hi", Value::Int(8)}});
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  size_t expand = e->find("Expand(a->:T->b)");
  ASSERT_NE(expand, std::string::npos) << *e;
  // The scan, with both predicates, is the Expand's child: no Filter
  // between them.
  const std::string scan =
      "+ NodeByLabelScan(a:L) WHERE (a.x >= $lo) AND (a.x < $hi)";
  std::string below = e->substr(e->find('\n', expand) + 1);
  EXPECT_NE(below.find(scan), std::string::npos) << *e;
  EXPECT_EQ(below.find(scan), below.find('+')) << *e;
}

}  // namespace
}  // namespace gqlite
