// Graph serialization tests: DumpToCypher must produce a script that,
// executed on a fresh engine, rebuilds an equivalent graph — a round-trip
// through the whole stack (store → literal rendering → lexer → parser →
// analyzer → update executor → store).

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/graph/graph_io.h"
#include "src/workload/generators.h"
#include "src/workload/paper_graphs.h"

namespace gqlite {
namespace {

/// Structural equivalence good enough for round-trip checks: counts per
/// label/type, plus every query in `probes` returning the same bag on
/// `a` and on the default graph of `reloaded`.
void ExpectEquivalent(GraphPtr a, CypherEngine& reloaded,
                      const std::vector<std::string>& probes) {
  std::shared_ptr<const PropertyGraph> b = reloaded.Snapshot();
  ASSERT_EQ(a->NumNodes(), b->NumNodes());
  ASSERT_EQ(a->NumRels(), b->NumRels());
  for (const std::string& q : probes) {
    CypherEngine ea;
    ea.RegisterGraph("g", a);
    auto ra = ea.Execute("FROM GRAPH g " + q);
    auto rb = reloaded.Execute(q);
    ASSERT_TRUE(ra.ok()) << q << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << q << rb.status().ToString();
    EXPECT_TRUE(ra->table.SameBag(rb->table))
        << q << "\noriginal:\n" << ra->table.ToString() << "reloaded:\n"
        << rb->table.ToString();
  }
}

/// Runs g's dump script on `engine` and returns the committed result.
std::shared_ptr<const PropertyGraph> Reload(const PropertyGraph& g,
                                            CypherEngine* engine) {
  std::string script = DumpToCypher(g);
  if (!script.empty()) {
    auto r = engine->Execute(script);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nscript:\n" << script;
  }
  return engine->Snapshot();
}

TEST(GraphIo, EmptyGraph) {
  PropertyGraph g;
  EXPECT_EQ(DumpToCypher(g), "");
}

TEST(GraphIo, PaperFigure1RoundTrip) {
  workload::PaperFigure1 fig = workload::MakePaperFigure1Graph();
  CypherEngine reloaded;
  Reload(*fig.graph, &reloaded);
  ExpectEquivalent(
      fig.graph, reloaded,
      {"MATCH (r:Researcher) RETURN r.name ORDER BY r.name",
       "MATCH (p:Publication)<-[:CITES]-(q) RETURN p.acmid, count(q) "
       "ORDER BY p.acmid",
       "MATCH (r)-[:SUPERVISES]->(s) RETURN r.name, s.name "
       "ORDER BY r.name, s.name",
       "MATCH (a)-[:CITES*]->(b) RETURN count(*)"});
}

TEST(GraphIo, EscapingAndValueKinds) {
  PropertyGraph g;
  g.CreateNode({"Weird Label", "Ok"},
               {{"s", Value::String("it's a \\ 'test'\nline")},
                {"i", Value::Int(-42)},
                {"f", Value::Float(2.5)},
                {"b", Value::Bool(true)},
                {"list", Value::MakeList({Value::Int(1),
                                          Value::String("x")})},
                {"map", Value::MakeMap({{"inner key", Value::Int(1)}})},
                {"d", Value::Temporal(Date::FromYmd(2018, 6, 10))},
                {"dur", Value::Temporal(Duration::Make(14, 3, 60, 0))}});
  CypherEngine engine;
  std::shared_ptr<const PropertyGraph> reloaded = Reload(g, &engine);
  ASSERT_EQ(reloaded->NumNodes(), 1u);
  NodeId n{0};
  EXPECT_EQ(reloaded->NodeProperty(n, "s").AsString(),
            "it's a \\ 'test'\nline");
  EXPECT_EQ(reloaded->NodeProperty(n, "i").AsInt(), -42);
  EXPECT_DOUBLE_EQ(reloaded->NodeProperty(n, "f").AsFloat(), 2.5);
  EXPECT_TRUE(reloaded->NodeProperty(n, "b").AsBool());
  EXPECT_EQ(reloaded->NodeProperty(n, "list").AsList().size(), 2u);
  EXPECT_EQ(reloaded->NodeProperty(n, "map").AsMap().at("inner key").AsInt(),
            1);
  EXPECT_EQ(reloaded->NodeProperty(n, "d").AsDate().ToString(), "2018-06-10");
  EXPECT_EQ(reloaded->NodeProperty(n, "dur").AsDuration().months, 14);
  EXPECT_TRUE(reloaded->NodeHasLabel(n, "Weird Label"));
}

TEST(GraphIo, RandomGraphRoundTrip) {
  GraphPtr g = workload::MakeRandomGraph(40, 80, 2024);
  CypherEngine reloaded;
  Reload(*g, &reloaded);
  ExpectEquivalent(g, reloaded,
                   {"MATCH (a:A) RETURN count(*)",
                    "MATCH ()-[r:T]->() RETURN r.w, count(*) ORDER BY r.w",
                    "MATCH (a)-[:T]->(b)-[:U]->(c) RETURN count(*)",
                    "MATCH (a) RETURN a.v, count(*) ORDER BY a.v"});
}

TEST(GraphIo, DeletedEntitiesAreNotDumped) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Keep"});
  NodeId b = g.CreateNode({"Drop"});
  g.CreateRelationship(a, b, "T").value();
  ASSERT_TRUE(g.DetachDeleteNode(b).ok());
  CypherEngine engine;
  std::shared_ptr<const PropertyGraph> reloaded = Reload(g, &engine);
  EXPECT_EQ(reloaded->NumNodes(), 1u);
  EXPECT_EQ(reloaded->NumRels(), 0u);
  EXPECT_EQ(reloaded->NodesWithLabel("Drop").size(), 0u);
}

TEST(GraphIo, EntityValuesRejected) {
  auto r = ValueToCypherLiteral(Value::Node(NodeId{1}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gqlite
