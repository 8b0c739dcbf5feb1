#include <gtest/gtest.h>

#include "fixtures/generators.h"
#include "fixtures/paper_graphs.h"
#include "src/graph/graph_catalog.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_statistics.h"
#include "src/graph/property_graph.h"

namespace gqlite {
namespace {

TEST(PropertyGraph, CreateNodesAndRels) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person"}, {{"name", Value::String("Ada")}});
  NodeId b = g.CreateNode({"Person", "Admin"});
  auto r = g.CreateRelationship(a, b, "KNOWS", {{"since", Value::Int(1985)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumRels(), 1u);
  EXPECT_EQ(g.Source(*r), a);
  EXPECT_EQ(g.Target(*r), b);
  EXPECT_EQ(g.RelType(*r), "KNOWS");
  EXPECT_EQ(g.RelProperty(*r, "since").AsInt(), 1985);
  EXPECT_TRUE(g.NodeHasLabel(a, "Person"));
  EXPECT_TRUE(g.NodeHasLabel(b, "Admin"));
  EXPECT_FALSE(g.NodeHasLabel(a, "Admin"));
}

TEST(PropertyGraph, PropertyAbsentIsNull) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  EXPECT_TRUE(g.NodeProperty(a, "nope").is_null());
}

TEST(PropertyGraph, SetAndRemoveProperty) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  EXPECT_EQ(g.SetNodeProperty(a, "x", Value::Int(1)), 1);
  EXPECT_EQ(g.NodeProperty(a, "x").AsInt(), 1);
  EXPECT_EQ(g.SetNodeProperty(a, "x", Value::Int(2)), 1);
  EXPECT_EQ(g.NodeProperty(a, "x").AsInt(), 2);
  // Setting null removes (Cypher SET n.x = null).
  EXPECT_EQ(g.SetNodeProperty(a, "x", Value::Null()), 1);
  EXPECT_TRUE(g.NodeProperty(a, "x").is_null());
  EXPECT_EQ(g.SetNodeProperty(a, "y", Value::Null()), 0);
  EXPECT_TRUE(g.NodePropertyKeys(a).empty());
}

TEST(PropertyGraph, NullPropertiesSkippedAtCreation) {
  PropertyGraph g;
  NodeId a = g.CreateNode({}, {{"x", Value::Null()}, {"y", Value::Int(1)}});
  EXPECT_EQ(g.NodePropertyKeys(a).size(), 1u);
  EXPECT_EQ(g.NodeProperties(a).size(), 1u);
}

TEST(PropertyGraph, AdjacencyIsDirect) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  NodeId c = g.CreateNode();
  RelId r1 = g.CreateRelationship(a, b, "T").value();
  RelId r2 = g.CreateRelationship(a, c, "T").value();
  RelId r3 = g.CreateRelationship(b, a, "U").value();
  EXPECT_EQ(g.OutRels(a).size(), 2u);
  EXPECT_EQ(g.InRels(a).size(), 1u);
  EXPECT_EQ(g.Degree(a), 3u);
  EXPECT_EQ(g.OtherEnd(r1, a), b);
  EXPECT_EQ(g.OtherEnd(r1, b), a);
  EXPECT_EQ(g.OtherEnd(r2, a), c);
  EXPECT_EQ(g.OtherEnd(r3, a), b);
}

TEST(PropertyGraph, LabelIndex) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"X"});
  g.CreateNode({"Y"});
  NodeId c = g.CreateNode({"X"});
  const auto& xs = g.NodesWithLabel("X");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0], a);
  EXPECT_EQ(xs[1], c);
  EXPECT_TRUE(g.NodesWithLabel("Nope").empty());
}

TEST(PropertyGraph, AddRemoveLabelMaintainsIndex) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"X"});
  EXPECT_TRUE(g.AddLabel(a, "Y"));
  EXPECT_FALSE(g.AddLabel(a, "Y"));  // already present
  EXPECT_EQ(g.NodesWithLabel("Y").size(), 1u);
  EXPECT_TRUE(g.RemoveLabel(a, "X"));
  EXPECT_FALSE(g.RemoveLabel(a, "X"));
  EXPECT_TRUE(g.NodesWithLabel("X").empty());
  EXPECT_EQ(g.NodeLabels(a), std::vector<std::string>{"Y"});
}

TEST(PropertyGraph, DeleteRules) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  RelId r = g.CreateRelationship(a, b, "T").value();
  // Cannot delete a node with relationships.
  EXPECT_FALSE(g.DeleteNode(a).ok());
  ASSERT_TRUE(g.DeleteRelationship(r).ok());
  EXPECT_FALSE(g.IsRelAlive(r));
  EXPECT_EQ(g.Degree(a), 0u);
  ASSERT_TRUE(g.DeleteNode(a).ok());
  EXPECT_FALSE(g.IsNodeAlive(a));
  EXPECT_EQ(g.NumNodes(), 1u);
  // Double delete fails cleanly.
  EXPECT_FALSE(g.DeleteNode(a).ok());
  EXPECT_FALSE(g.DeleteRelationship(r).ok());
}

TEST(PropertyGraph, DetachDelete) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  g.CreateRelationship(a, b, "T").value();
  g.CreateRelationship(b, a, "T").value();
  g.CreateRelationship(a, a, "SELF").value();
  ASSERT_TRUE(g.DetachDeleteNode(a).ok());
  EXPECT_EQ(g.NumRels(), 0u);
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_TRUE(g.IsNodeAlive(b));
}

TEST(PropertyGraph, RelationshipToDeletedNodeFails) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  ASSERT_TRUE(g.DeleteNode(b).ok());
  EXPECT_FALSE(g.CreateRelationship(a, b, "T").ok());
  EXPECT_FALSE(g.CreateRelationship(a, NodeId{999}, "T").ok());
  EXPECT_FALSE(g.CreateRelationship(a, a, "").ok());  // τ total
}

TEST(PropertyGraph, RenderShowsLabelsAndProps) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person"}, {{"name", Value::String("Nils")}});
  EXPECT_EQ(g.Render(Value::Node(a)), "(:Person {name: 'Nils'})");
  NodeId b = g.CreateNode();
  RelId r = g.CreateRelationship(a, b, "KNOWS").value();
  EXPECT_EQ(g.Render(Value::Relationship(r)), "[:KNOWS]");
  Path p;
  p.nodes = {a, b};
  p.rels = {r};
  EXPECT_EQ(g.Render(Value::MakePath(p)),
            "(:Person {name: 'Nils'})-[:KNOWS]->()");
}

TEST(Snapshot, StableUnderSubsequentMutation) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person"}, {{"name", Value::String("Ada")}});
  NodeId b = g.CreateNode({"Person"});
  RelId r = g.CreateRelationship(a, b, "KNOWS").value();

  auto snap = g.Snapshot();
  ASSERT_TRUE(snap->frozen());
  EXPECT_FALSE(g.frozen());

  // Mutate every COW surface on the live graph: slot pages (property
  // set, new node, delete), label-index postings, adjacency.
  g.SetNodeProperty(a, "name", Value::String("Grace"));
  g.CreateNode({"Person"});
  g.AddLabel(b, "Admin");
  ASSERT_TRUE(g.DeleteRelationship(r).ok());
  ASSERT_TRUE(g.DeleteNode(b).ok());

  // The snapshot still answers with pre-mutation state.
  EXPECT_EQ(snap->NumNodes(), 2u);
  EXPECT_EQ(snap->NumRels(), 1u);
  EXPECT_EQ(snap->NodeProperty(a, "name").AsString(), "Ada");
  EXPECT_TRUE(snap->IsRelAlive(r));
  EXPECT_TRUE(snap->IsNodeAlive(b));
  EXPECT_FALSE(snap->NodeHasLabel(b, "Admin"));
  EXPECT_EQ(snap->NodesWithLabel("Person").size(), 2u);
  // And the live graph moved on.
  EXPECT_EQ(g.NumNodes(), 2u);  // +1 created, -1 deleted
  EXPECT_EQ(g.NodeProperty(a, "name").AsString(), "Grace");
  EXPECT_EQ(g.NodesWithLabel("Person").size(), 2u);
}

TEST(Snapshot, MutatorsOnFrozenGraphFail) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  NodeId b = g.CreateNode();
  RelId r = g.CreateRelationship(a, b, "T").value();
  auto snap = g.Snapshot();

  EXPECT_FALSE(snap->CreateRelationship(a, b, "T").ok());
  EXPECT_FALSE(snap->DeleteRelationship(r).ok());
  EXPECT_FALSE(snap->DeleteNode(a).ok());
  EXPECT_FALSE(snap->DetachDeleteNode(a).ok());
  // The snapshot is byte-for-byte intact afterwards.
  EXPECT_EQ(snap->NumNodes(), 2u);
  EXPECT_EQ(snap->NumRels(), 1u);
}

TEST(Snapshot, CloneIsIndependentAndMutable) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person"});
  auto snap = g.Snapshot();
  auto clone = snap->Clone();
  ASSERT_FALSE(clone->frozen());

  clone->AddLabel(a, "Admin");
  clone->CreateNode({"Person"});
  EXPECT_EQ(clone->NumNodes(), 2u);
  EXPECT_TRUE(clone->NodeHasLabel(a, "Admin"));
  // Neither the snapshot nor the original saw the clone's writes.
  EXPECT_EQ(snap->NumNodes(), 1u);
  EXPECT_FALSE(snap->NodeHasLabel(a, "Admin"));
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_FALSE(g.NodeHasLabel(a, "Admin"));
}

TEST(Clone, IsolatedFromLiveSource) {
  // Cloning a live (not frozen) graph must make the source's pages read
  // as shared, or the source's next write lands in the clone's payload.
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person"}, {{"x", Value::Int(1)}});
  auto clone = g.Clone();
  g.SetNodeProperty(a, "x", Value::Int(2));
  EXPECT_EQ(clone->NodeProperty(a, "x").AsInt(), 1);
  EXPECT_EQ(g.NodeProperty(a, "x").AsInt(), 2);

  clone->SetNodeProperty(a, "x", Value::Int(3));
  clone->CreateNode({"Person"});
  EXPECT_EQ(g.NodeProperty(a, "x").AsInt(), 2);
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_EQ(clone->NodeProperty(a, "x").AsInt(), 3);
}

TEST(Snapshot, ChainedSnapshotsEachPinTheirEpoch) {
  PropertyGraph g;
  g.CreateNode({"A"});
  auto s1 = g.Snapshot();
  g.CreateNode({"A"});
  auto s2 = g.Snapshot();
  g.CreateNode({"A"});

  EXPECT_EQ(s1->NumNodes(), 1u);
  EXPECT_EQ(s2->NumNodes(), 2u);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(s1->NodesWithLabel("A").size(), 1u);
  EXPECT_EQ(s2->NodesWithLabel("A").size(), 2u);
}

TEST(Snapshot, IsolatedAcrossPageAndLeafBoundaries) {
  // Slots live in pages of 64 records under leaves of 64 pages (4,096
  // slots). Three leaves of nodes and relationships; writes at the edges
  // of pages and leaves and appends past both boundaries must leave every
  // earlier snapshot (and a clone of one) exactly as it was. The dumps
  // run to megabytes, so they are compared without printing a diff.
  constexpr size_t kSlots = 10000;
  PropertyGraph g;
  for (size_t i = 0; i < kSlots; ++i) {
    g.CreateNode({"P"}, {{"id", Value::Int(static_cast<int64_t>(i))}});
  }
  const PropertyList w = {{"w", Value::Int(1)}};
  for (size_t i = 0; i < kSlots; ++i) {
    NodeId to{(i * 7 + 1) % kSlots};
    ASSERT_TRUE(g.CreateRelationship(NodeId{i}, to, "T", w).ok());
  }
  auto snap = g.Snapshot();
  const std::string before = DumpToCypher(*snap);

  const size_t kEdges[] = {0, 63, 64, 4095, 4096, kSlots - 1};
  for (size_t id : kEdges) {
    g.SetNodeProperty(NodeId{id}, "id", Value::Int(-1));
    g.SetRelProperty(RelId{id}, "w", Value::Int(-1));
  }
  // Past the next page boundary (10,048) and leaf boundary (12,288).
  while (g.NumNodeSlots() < 3 * 4096 + 65) {
    NodeId n = g.CreateNode({"Q"});
    ASSERT_TRUE(g.CreateRelationship(n, NodeId{4096}, "U").ok());
  }
  ASSERT_GT(g.NumRelSlots(), 3 * 4096 + 64u);
  auto snap2 = g.Snapshot();
  const std::string before2 = DumpToCypher(*snap2);
  // Node 5000's page, and those of its relationships and neighbours, are
  // shared with both snapshots.
  ASSERT_TRUE(g.DetachDeleteNode(NodeId{5000}).ok());
  const std::string head = DumpToCypher(g);

  EXPECT_TRUE(DumpToCypher(*snap) == before);
  EXPECT_TRUE(DumpToCypher(*snap2) == before2);
  EXPECT_TRUE(snap2->IsNodeAlive(NodeId{5000}));
  EXPECT_TRUE(head != before2);

  // A clone of the first snapshot writes without reaching either side,
  // and later head writes do not reach the clone.
  auto clone = snap->Clone();
  clone->SetNodeProperty(NodeId{4096}, "id", Value::Int(-2));
  clone->SetRelProperty(RelId{4095}, "w", Value::Int(-2));
  while (clone->NumNodeSlots() < 3 * 4096 + 1) clone->CreateNode({"C"});
  const std::string cloned = DumpToCypher(*clone);
  EXPECT_TRUE(cloned != before);
  g.SetNodeProperty(NodeId{4097}, "id", Value::Int(-3));
  g.CreateNode({"Q"});
  EXPECT_TRUE(DumpToCypher(*snap) == before);
  EXPECT_TRUE(DumpToCypher(*clone) == cloned);
  EXPECT_EQ(clone->NodeProperty(NodeId{4097}, "id").AsInt(), 4097);
  EXPECT_EQ(g.NodeProperty(NodeId{4096}, "id").AsInt(), -1);
  EXPECT_EQ(g.NodesWithLabel("C").size(), 0u);
}

TEST(Snapshot, DataVersionTracksEveryMutation) {
  PropertyGraph g;
  NodeId a = g.CreateNode();
  uint64_t v = g.data_version();
  // Property sets bump data_version (snapshot refresh) but not
  // stats_version (plan-cache statistics guards).
  uint64_t sv = g.stats_version();
  EXPECT_EQ(g.SetNodeProperty(a, "x", Value::Int(1)), 1);
  EXPECT_GT(g.data_version(), v);
  EXPECT_EQ(g.stats_version(), sv);
  // A no-op (removing an absent key) does not bump it.
  v = g.data_version();
  EXPECT_EQ(g.SetNodeProperty(a, "absent", Value::Null()), 0);
  EXPECT_EQ(g.data_version(), v);
}

TEST(GraphStatistics, Counts) {
  workload::CitationConfig cfg;
  cfg.num_researchers = 10;
  GraphPtr g = workload::MakeCitationGraph(cfg);
  GraphStatistics stats(*g);
  EXPECT_EQ(stats.NodesWithLabel("Researcher"), 10);
  EXPECT_GT(stats.NodesWithLabel("Publication"), 0);
  EXPECT_GT(stats.RelsWithType("AUTHORS"), 0);
  EXPECT_EQ(stats.RelsWithType("NOPE"), 0);
  EXPECT_EQ(stats.RelsWithType(""), stats.RelCount());
}

TEST(GraphCatalog, ResolveByNameAndUrl) {
  // The catalog locks internally; no external MutexLock needed.
  GraphCatalog cat;
  auto g = std::make_shared<PropertyGraph>();
  g->CreateNode({"V"});
  cat.RegisterGraph("soc_net", g);
  cat.RegisterUrl("hdfs://cluster/soc_network", g);
  Result<GraphPtr> by_name = cat.Resolve("soc_net");
  Result<GraphPtr> by_url = cat.ResolveUrl("hdfs://cluster/soc_network");
  ASSERT_TRUE(by_name.ok());
  ASSERT_TRUE(by_url.ok());
  // Registered graphs are frozen values: a write to `g` after
  // registration never shows through the name or the URL.
  EXPECT_TRUE((*by_name)->frozen());
  EXPECT_TRUE((*by_url)->frozen());
  g->CreateNode({"V"});
  EXPECT_EQ((*by_name)->NumNodes(), 1u);
  EXPECT_EQ((*by_url)->NumNodes(), 1u);
  EXPECT_EQ(cat.Resolve("soc_net").value()->NumNodes(), 1u);
  // A frozen graph is stored as is.
  GraphPtr frozen = g->Snapshot();
  cat.RegisterGraph("frozen", frozen);
  EXPECT_EQ(cat.Resolve("frozen").value(), frozen);
  // The default graph is not a catalog entry.
  EXPECT_FALSE(cat.Resolve("default").ok());
  EXPECT_FALSE(cat.Resolve("nope").ok());
  EXPECT_FALSE(cat.ResolveUrl("bolt://nope").ok());
}

// ---- Paper graphs ----------------------------------------------------------

TEST(PaperGraphs, Figure1MatchesExample41) {
  workload::PaperFigure1 f = workload::MakePaperFigure1Graph();
  const PropertyGraph& g = *f.graph;
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.NumRels(), 11u);
  // Labels per Figure 1 (Example 4.1's swap is an erratum; see README,
  // "Deliberate departures from the paper").
  for (int i : {1, 6, 10}) EXPECT_TRUE(g.NodeHasLabel(f.n[i], "Researcher"));
  for (int i : {7, 8}) EXPECT_TRUE(g.NodeHasLabel(f.n[i], "Student"));
  for (int i : {2, 3, 4, 5, 9}) {
    EXPECT_TRUE(g.NodeHasLabel(f.n[i], "Publication"));
  }
  // src/tgt per Example 4.1.
  EXPECT_EQ(g.Source(f.r[4]), f.n[5]);
  EXPECT_EQ(g.Target(f.r[4]), f.n[2]);
  EXPECT_EQ(g.Source(f.r[11]), f.n[9]);
  EXPECT_EQ(g.Target(f.r[11]), f.n[5]);
  // ι samples.
  EXPECT_EQ(g.NodeProperty(f.n[1], "name").AsString(), "Nils");
  EXPECT_EQ(g.NodeProperty(f.n[2], "acmid").AsInt(), 220);
  EXPECT_EQ(g.NodeProperty(f.n[10], "name").AsString(), "Thor");
  // τ samples.
  EXPECT_EQ(g.RelType(f.r[1]), "AUTHORS");
  EXPECT_EQ(g.RelType(f.r[6]), "SUPERVISES");
  EXPECT_EQ(g.RelType(f.r[9]), "CITES");
}

TEST(PaperGraphs, Figure4Chain) {
  workload::PaperFigure4 f = workload::MakePaperFigure4Graph();
  const PropertyGraph& g = *f.graph;
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumRels(), 3u);
  EXPECT_TRUE(g.NodeHasLabel(f.n[1], "Teacher"));
  EXPECT_TRUE(g.NodeHasLabel(f.n[2], "Student"));
  EXPECT_TRUE(g.NodeHasLabel(f.n[3], "Teacher"));
  EXPECT_TRUE(g.NodeHasLabel(f.n[4], "Teacher"));
  EXPECT_EQ(g.Source(f.r[2]), f.n[2]);
  EXPECT_EQ(g.Target(f.r[2]), f.n[3]);
}

TEST(PaperGraphs, SelfLoop) {
  workload::SelfLoop s = workload::MakeSelfLoopGraph();
  EXPECT_EQ(s.graph->NumNodes(), 1u);
  EXPECT_EQ(s.graph->NumRels(), 1u);
  EXPECT_EQ(s.graph->Source(s.rel), s.node);
  EXPECT_EQ(s.graph->Target(s.rel), s.node);
}

// ---- Generators -------------------------------------------------------------

TEST(Generators, ChainAndCycle) {
  GraphPtr chain = workload::MakeChain(5);
  EXPECT_EQ(chain->NumNodes(), 5u);
  EXPECT_EQ(chain->NumRels(), 4u);
  GraphPtr cycle = workload::MakeCycle(5);
  EXPECT_EQ(cycle->NumRels(), 5u);
}

TEST(Generators, Grid) {
  GraphPtr g = workload::MakeGrid(3, 4);
  EXPECT_EQ(g->NumNodes(), 12u);
  // 3*(4-1) RIGHT + (3-1)*4 DOWN = 9 + 8.
  EXPECT_EQ(g->NumRels(), 17u);
}

TEST(Generators, Clique) {
  GraphPtr g = workload::MakeClique(4);
  EXPECT_EQ(g->NumNodes(), 4u);
  EXPECT_EQ(g->NumRels(), 12u);
}

TEST(Generators, FraudRingsShareSSN) {
  workload::FraudConfig cfg;
  cfg.num_holders = 20;
  cfg.num_rings = 2;
  cfg.ring_size = 3;
  GraphPtr g = workload::MakeFraudGraph(cfg);
  GraphStatistics stats(*g);
  EXPECT_EQ(stats.NodesWithLabel("AccountHolder"), 20);
  // Each ring SSN has ring_size incoming HAS edges.
  const auto& ssns = g->NodesWithLabel("SSN");
  size_t shared = 0;
  for (NodeId s : ssns) {
    if (g->InRels(s).size() >= 3) ++shared;
  }
  EXPECT_EQ(shared, 2u);
}

TEST(Generators, DeterministicBySeed) {
  GraphPtr a = workload::MakeRandomGraph(50, 100, 7);
  GraphPtr b = workload::MakeRandomGraph(50, 100, 7);
  EXPECT_EQ(a->NumNodes(), b->NumNodes());
  EXPECT_EQ(a->NumRels(), b->NumRels());
  for (size_t i = 0; i < a->NumRelSlots(); ++i) {
    RelId r{i};
    EXPECT_EQ(a->Source(r), b->Source(r));
    EXPECT_EQ(a->Target(r), b->Target(r));
    EXPECT_EQ(a->RelType(r), b->RelType(r));
  }
}

TEST(Generators, SocialNetworkShape) {
  workload::SocialConfig cfg;
  cfg.num_people = 100;
  cfg.avg_friends = 4;
  cfg.num_cities = 5;
  GraphPtr g = workload::MakeSocialNetwork(cfg);
  GraphStatistics stats(*g);
  EXPECT_EQ(stats.NodesWithLabel("Person"), 100);
  EXPECT_EQ(stats.NodesWithLabel("City"), 5);
  EXPECT_EQ(stats.RelsWithType("IN"), 100);
  EXPECT_GT(stats.RelsWithType("FRIEND"), 100);
}

TEST(Generators, DependencyLayers) {
  workload::DependencyConfig cfg;
  cfg.layers = 3;
  cfg.per_layer = 10;
  cfg.fanout = 2;
  GraphPtr g = workload::MakeDependencyNetwork(cfg);
  EXPECT_EQ(g->NumNodes(), 30u);
  EXPECT_EQ(g->NumRels(), 2u * 10u * 2u);  // (layers-1) * per_layer * fanout
}

}  // namespace
}  // namespace gqlite
