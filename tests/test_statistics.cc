#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/frontend/ast.h"
#include "src/graph/graph_statistics.h"
#include "src/graph/property_graph.h"
#include "src/plan/cost_model.h"

namespace gqlite {
namespace {

ast::RelPattern Rel(std::string type,
                    ast::Direction dir = ast::Direction::kRight) {
  ast::RelPattern rp;
  rp.direction = dir;
  if (!type.empty()) rp.types.push_back(std::move(type));
  return rp;
}

ast::RelPattern VarRel(std::string type, std::optional<int64_t> min,
                       std::optional<int64_t> max) {
  ast::RelPattern rp = Rel(std::move(type));
  rp.length = ast::VarLength{min, max};
  return rp;
}

TEST(GraphStatistics, EmptyGraphIsAllZeros) {
  PropertyGraph g;
  GraphStatistics stats(g);
  EXPECT_EQ(stats.NodeCount(), 0.0);
  EXPECT_EQ(stats.RelCount(), 0.0);
  EXPECT_EQ(stats.NodesWithLabel("Person"), 0.0);
  EXPECT_EQ(stats.RelsWithType("KNOWS"), 0.0);
  EXPECT_EQ(stats.OutDegree("KNOWS"), 0.0);
  EXPECT_EQ(stats.InDegree("KNOWS", "Person"), 0.0);
  EXPECT_EQ(stats.CondOutDegree("KNOWS"), 0.0);
  EXPECT_EQ(stats.NodePropertyNdv("age"), 0.0);

  // The cost model must not divide by zero on an empty graph either.
  CostModel cost(stats);
  NodeConstraint nc;
  nc.labels.push_back("Person");
  EXPECT_GE(cost.ScanCardinality(nc), 0.0);
  EXPECT_GE(cost.ExpandFactor(Rel("KNOWS"), /*reversed=*/false), 0.0);
}

TEST(GraphStatistics, UnknownLabelAndTypeAreZero) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"A"});
  NodeId b = g.CreateNode({"B"});
  ASSERT_TRUE(g.CreateRelationship(a, b, "R", {}).ok());
  GraphStatistics stats(g);
  EXPECT_EQ(stats.NodesWithLabel("Nope"), 0.0);
  EXPECT_EQ(stats.RelsWithType("NOPE"), 0.0);
  EXPECT_EQ(stats.OutDegree("NOPE"), 0.0);
  EXPECT_EQ(stats.OutDegree("R", "Nope"), 0.0);
  EXPECT_EQ(stats.InDegree("NOPE", "B"), 0.0);
}

TEST(GraphStatistics, DirectionalAsymmetryOnHubStar) {
  // One Hub with fan-out 20 to Leaf nodes: the OUT fan from Hub is 20,
  // the IN fan into Hub is 0, and leaves see the mirror image.
  PropertyGraph g;
  NodeId hub = g.CreateNode({"Hub"});
  for (int i = 0; i < 20; ++i) {
    NodeId leaf = g.CreateNode({"Leaf"});
    ASSERT_TRUE(g.CreateRelationship(hub, leaf, "R", {}).ok());
  }
  GraphStatistics stats(g);
  EXPECT_DOUBLE_EQ(stats.OutDegree("R", "Hub"), 20.0);
  EXPECT_DOUBLE_EQ(stats.InDegree("R", "Hub"), 0.0);
  EXPECT_DOUBLE_EQ(stats.OutDegree("R", "Leaf"), 0.0);
  EXPECT_DOUBLE_EQ(stats.InDegree("R", "Leaf"), 1.0);
  // Unconditioned fans average over ALL nodes (21 of them).
  EXPECT_NEAR(stats.OutDegree("R"), 20.0 / 21.0, 1e-9);
  EXPECT_NEAR(stats.InDegree("R"), 20.0 / 21.0, 1e-9);
  // Conditional fans divide by nodes that actually have such a rel.
  EXPECT_DOUBLE_EQ(stats.DistinctSources("R"), 1.0);
  EXPECT_DOUBLE_EQ(stats.DistinctTargets("R"), 20.0);
  EXPECT_DOUBLE_EQ(stats.CondOutDegree("R"), 20.0);
  EXPECT_DOUBLE_EQ(stats.CondInDegree("R"), 1.0);
}

TEST(GraphStatistics, DistinctEndpointsDeleteRoundTrip) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  std::vector<RelId> rels;
  for (int i = 0; i < 5; ++i) {
    auto r = g.CreateRelationship(a, b, "R", {});
    ASSERT_TRUE(r.ok());
    rels.push_back(*r);
  }
  SymbolId type = g.LookupType("R");
  const auto* ds = g.DegreeStatsFor(type);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->distinct_sources, 1u);
  EXPECT_EQ(ds->distinct_targets, 1u);

  // Delete down to one rel: the node is still a source.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(g.DeleteRelationship(rels[i]).ok());
  ds = g.DegreeStatsFor(type);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->distinct_sources, 1u);

  // Delete the last one: everything drains back to zero.
  ASSERT_TRUE(g.DeleteRelationship(rels[4]).ok());
  ds = g.DegreeStatsFor(type);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->distinct_sources, 0u);
  EXPECT_EQ(ds->distinct_targets, 0u);
  GraphStatistics stats(g);
  EXPECT_EQ(stats.OutDegree("R"), 0.0);
}

TEST(GraphStatistics, NdvExactBelowSketchCapacity) {
  // The KMV sketch keeps 64 minima, so <= 64 distinct values are exact.
  PropertyGraph g;
  for (int i = 0; i < 200; ++i) {
    // 40 distinct values, each written five times.
    g.CreateNode({}, {{"bucket", Value::Int(i % 40)}});
  }
  GraphStatistics stats(g);
  EXPECT_DOUBLE_EQ(stats.NodePropertyNdv("bucket"), 40.0);
  EXPECT_EQ(stats.RelPropertyNdv("bucket"), 0.0);  // node key only
}

TEST(GraphStatistics, NdvEstimateWithinFactorOfTwo) {
  PropertyGraph g;
  for (int i = 0; i < 1000; ++i) {
    g.CreateNode({}, {{"id", Value::Int(i)}});
  }
  GraphStatistics stats(g);
  double ndv = stats.NodePropertyNdv("id");
  EXPECT_GE(ndv, 500.0);
  EXPECT_LE(ndv, 2000.0);
}

TEST(CostModel, VarLengthHonorsExplicitMax) {
  // Chain a->b->c->... with fan exactly 1: path count through *1..k is k.
  PropertyGraph g;
  NodeId prev = g.CreateNode();
  for (int i = 0; i < 40; ++i) {
    NodeId next = g.CreateNode();
    ASSERT_TRUE(g.CreateRelationship(prev, next, "R", {}).ok());
    prev = next;
  }
  GraphStatistics stats(g);
  CostModel cost(stats);
  double one = cost.ExpandFactor(VarRel("R", 1, 1), false);
  double three = cost.ExpandFactor(VarRel("R", 1, 3), false);
  double five = cost.ExpandFactor(VarRel("R", 1, 5), false);
  // More allowed levels -> strictly more estimated paths.
  EXPECT_GT(three, one);
  EXPECT_GT(five, three);
  // With fan ~1 the estimate stays around the level count, far from the
  // saturation cap: the explicit max is honored, not replaced by a
  // "whole graph" bound.
  EXPECT_LT(five, 50.0);
}

TEST(CostModel, UnboundedVarLengthUsesFiniteHorizon) {
  PropertyGraph g;
  NodeId prev = g.CreateNode();
  for (int i = 0; i < 40; ++i) {
    NodeId next = g.CreateNode();
    ASSERT_TRUE(g.CreateRelationship(prev, next, "R", {}).ok());
    prev = next;
  }
  GraphStatistics stats(g);
  CostModel cost(stats);
  // Unbounded *2.. estimates over a lo+8 horizon: finite, and at least
  // as large as the explicit *2..10 estimate it mirrors.
  double unbounded = cost.ExpandFactor(VarRel("R", 2, std::nullopt), false);
  double explicit10 = cost.ExpandFactor(VarRel("R", 2, 10), false);
  EXPECT_GT(unbounded, 0.0);
  EXPECT_GE(unbounded, explicit10 * 0.999);
  EXPECT_LT(unbounded, 1e15);
}

TEST(CostModel, ExpandFactorIsDirectional) {
  // 10 hubs each fanning out to 10 leaves: following -[:R]-> forward
  // from a Hub is fan 10; following it reversed from a Hub is fan 0.
  PropertyGraph g;
  for (int h = 0; h < 10; ++h) {
    NodeId hub = g.CreateNode({"Hub"});
    for (int i = 0; i < 10; ++i) {
      NodeId leaf = g.CreateNode({"Leaf"});
      ASSERT_TRUE(g.CreateRelationship(hub, leaf, "R", {}).ok());
    }
  }
  GraphStatistics stats(g);
  CostModel cost(stats);
  NodeConstraint hub;
  hub.labels.push_back("Hub");
  NodeConstraint leaf;
  leaf.labels.push_back("Leaf");
  ast::RelPattern rp = Rel("R");
  EXPECT_DOUBLE_EQ(cost.ExpandFactor(rp, /*reversed=*/false, hub), 10.0);
  // Reversed from a Hub the true fan is 0; the model floors it at 0.01
  // so downstream estimates never collapse to exactly zero.
  EXPECT_LE(cost.ExpandFactor(rp, /*reversed=*/true, hub), 0.01);
  EXPECT_DOUBLE_EQ(cost.ExpandFactor(rp, /*reversed=*/true, leaf), 1.0);
  // A <-[:R]- hop entered from the left follows IN-edges: reversed=false
  // on a kLeft pattern matches the reversed=true forward fan.
  ast::RelPattern back = Rel("R", ast::Direction::kLeft);
  EXPECT_DOUBLE_EQ(cost.ExpandFactor(back, /*reversed=*/false, hub),
                   cost.ExpandFactor(rp, /*reversed=*/true, hub));
}

TEST(CostModel, SelectivityUnifiesLabelsAndEqProps) {
  PropertyGraph g;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::string> labels;
    if (i < 20) labels.push_back("A");
    g.CreateNode(labels, {{"k", Value::Int(i % 10)}});
  }
  GraphStatistics stats(g);
  CostModel cost(stats);
  NodeConstraint nc;
  nc.labels.push_back("A");
  EXPECT_NEAR(cost.ScanCardinality(nc), 20.0, 1e-6);
  // Adding an equality on k (NDV 10, exact under the sketch capacity)
  // multiplies by 1/10.
  nc.eq_props.push_back("k");
  EXPECT_NEAR(cost.ScanCardinality(nc), 2.0, 1e-6);
  // Unknown property key falls back to the 0.1 default selectivity.
  nc.eq_props.push_back("unknown");
  EXPECT_NEAR(cost.ScanCardinality(nc), 0.2, 1e-6);
}

}  // namespace
}  // namespace gqlite
