// Public-API tests: CypherEngine end to end — updates, MERGE, parameters,
// EXPLAIN, temporal values, Cypher 10 multi-graph composition
// (Example 6.1), and error reporting.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/core/engine.h"
#include "src/workload/generators.h"
#include "src/workload/paper_graphs.h"

namespace gqlite {
namespace {

TEST(Engine, QuickstartCreateAndMatch) {
  CypherEngine engine;
  auto created = engine.Execute(
      "CREATE (a:Person {name: 'Ada'})-[:KNOWS {since: 1842}]->"
      "(b:Person {name: 'Charles'})");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->stats.nodes_created, 2);
  EXPECT_EQ(created->stats.rels_created, 1);

  auto rows = engine.Execute(
      "MATCH (a:Person)-[k:KNOWS]->(b) RETURN a.name, k.since, b.name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->table.NumRows(), 1u);
  EXPECT_EQ(rows->table.rows()[0][0].AsString(), "Ada");
  EXPECT_EQ(rows->table.rows()[0][1].AsInt(), 1842);
  EXPECT_EQ(rows->table.rows()[0][2].AsString(), "Charles");
}

TEST(Engine, BothModesAgreeOnPaperQuery) {
  workload::PaperFigure1 fig = workload::MakePaperFigure1Graph();
  const char* q =
      "MATCH (r:Researcher) "
      "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
      "WITH r, count(s) AS studentsSupervised "
      "MATCH (r)-[:AUTHORS]->(p1:Publication) "
      "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
      "RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount";

  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  CypherEngine interp_engine(interp_opts);
  interp_engine.RegisterGraph(GraphCatalog::kDefaultGraphName,
                                        fig.graph);
  // Re-fetch: the engine binds the default graph at construction.
  EngineOptions volcano_opts;
  volcano_opts.mode = ExecutionMode::kVolcano;
  CypherEngine volcano_engine(volcano_opts);

  // Run against the paper graph by copying it into each engine's graph.
  auto copy_into = [&](CypherEngine& e) {
    auto r = e.Execute(
        "CREATE (n1:Researcher {name: 'Nils'}), (n2:Publication {acmid: "
        "220}), (n3:Publication {acmid: 190}), (n4:Publication {acmid: "
        "235}), (n5:Publication {acmid: 240}), (n6:Researcher {name: "
        "'Elin'}), (n7:Student {name: 'Sten'}), (n8:Student {name: "
        "'Linda'}), (n9:Publication {acmid: 269}), (n10:Researcher {name: "
        "'Thor'}), (n1)-[:AUTHORS]->(n2), (n2)-[:CITES]->(n3), "
        "(n4)-[:CITES]->(n2), (n5)-[:CITES]->(n2), (n6)-[:AUTHORS]->(n5), "
        "(n6)-[:SUPERVISES]->(n7), (n6)-[:SUPERVISES]->(n8), "
        "(n10)-[:SUPERVISES]->(n7), (n9)-[:CITES]->(n4), "
        "(n6)-[:AUTHORS]->(n9), (n9)-[:CITES]->(n5)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  copy_into(interp_engine);
  copy_into(volcano_engine);

  auto a = interp_engine.Execute(q);
  auto b = volcano_engine.Execute(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->table.SameBag(b->table))
      << "interpreter:\n" << a->table.ToString() << "volcano:\n"
      << b->table.ToString();
  EXPECT_EQ(a->table.NumRows(), 2u);
}

TEST(Engine, SetRemoveDelete) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:X {v: 1}), (:X {v: 2})").ok());
  auto set = engine.Execute("MATCH (n:X) SET n.w = n.v * 10, n:Tagged");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->stats.properties_set, 2);
  EXPECT_EQ(set->stats.labels_added, 2);

  auto check = engine.Execute(
      "MATCH (n:Tagged) RETURN n.w ORDER BY n.w");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->table.NumRows(), 2u);
  EXPECT_EQ(check->table.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(check->table.rows()[1][0].AsInt(), 20);

  auto remove = engine.Execute("MATCH (n:X) REMOVE n.v, n:Tagged");
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove->stats.labels_removed, 2);
  auto gone = engine.Execute("MATCH (n:Tagged) RETURN n");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->table.NumRows(), 0u);

  auto del = engine.Execute("MATCH (n:X) DELETE n");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->stats.nodes_deleted, 2);
  EXPECT_EQ(engine.Snapshot()->NumNodes(), 0u);
}

TEST(Engine, DeleteWithRelationshipsRequiresDetach) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (a:A)-[:T]->(b:B)").ok());
  auto bad = engine.Execute("MATCH (a:A) DELETE a");
  EXPECT_FALSE(bad.ok());
  auto good = engine.Execute("MATCH (a:A) DETACH DELETE a");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->stats.nodes_deleted, 1);
  EXPECT_EQ(good->stats.rels_deleted, 1);
}

TEST(Engine, MergeMatchesOrCreates) {
  CypherEngine engine;
  auto first = engine.Execute(
      "MERGE (n:City {name: 'Oslo'}) ON CREATE SET n.created = true "
      "ON MATCH SET n.matched = true RETURN n.created, n.matched");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.nodes_created, 1);
  EXPECT_TRUE(first->table.rows()[0][0].AsBool());
  EXPECT_TRUE(first->table.rows()[0][1].is_null());

  auto second = engine.Execute(
      "MERGE (n:City {name: 'Oslo'}) ON CREATE SET n.created = true "
      "ON MATCH SET n.matched = true RETURN n.created, n.matched");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.nodes_created, 0);
  EXPECT_TRUE(second->table.rows()[0][1].AsBool());
  EXPECT_EQ(engine.Snapshot()->NumNodes(), 1u);
}

TEST(Engine, MergeRelationship) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:P {id: 1}), (:P {id: 2})").ok());
  const char* q =
      "MATCH (a:P {id: 1}), (b:P {id: 2}) MERGE (a)-[r:LINKED]->(b) "
      "RETURN r";
  auto first = engine.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.rels_created, 1);
  auto second = engine.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.rels_created, 0);
  EXPECT_EQ(engine.Snapshot()->NumRels(), 1u);
}

TEST(Engine, ParametersAndInjectionSafety) {
  CypherEngine engine;
  ASSERT_TRUE(
      engine.Execute("CREATE (:U {name: 'alice'}), (:U {name: 'bob'})").ok());
  ValueMap params;
  params["who"] = Value::String("alice");
  auto r = engine.Execute("MATCH (u:U {name: $who}) RETURN u.name", params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.NumRows(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].AsString(), "alice");
  // A malicious parameter value stays a value (no reparsing).
  params["who"] = Value::String("' OR 1=1 //");
  auto r2 = engine.Execute("MATCH (u:U {name: $who}) RETURN u.name", params);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->table.NumRows(), 0u);
  // Missing parameter errors cleanly.
  auto r3 = engine.Execute("MATCH (u:U {name: $nope}) RETURN u");
  EXPECT_FALSE(r3.ok());
}

TEST(Engine, ExplainShowsVolcanoOperators) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto plan = engine.Explain(
      "MATCH (a:A)-[r:T]->(b:B) WHERE a.x = 1 RETURN a, b");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("NodeByLabelScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Expand"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Projection"), std::string::npos) << *plan;
}

TEST(Engine, TemporalEndToEnd) {
  CypherEngine engine;
  auto r = engine.Execute(
      "RETURN date('2018-06-10') + duration('P1M') AS d, "
      "datetime('2018-06-10T14:00:00Z').epochSeconds AS es, "
      "duration('PT90M').minutes AS mins");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsDate().ToString(), "2018-07-10");
  EXPECT_EQ(r->table.rows()[0][1].AsInt(), 1528639200);
  EXPECT_EQ(r->table.rows()[0][2].AsInt(), 90);
}

TEST(Engine, TemporalPropertiesRoundTrip) {
  CypherEngine engine;
  ASSERT_TRUE(engine
                  .Execute("CREATE (:Event {at: datetime("
                           "'2018-06-10T09:30:00+02:00')})")
                  .ok());
  auto r = engine.Execute(
      "MATCH (e:Event) RETURN e.at.year, e.at.hour, e.at.offsetSeconds");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 2018);
  EXPECT_EQ(r->table.rows()[0][1].AsInt(), 9);
  EXPECT_EQ(r->table.rows()[0][2].AsInt(), 7200);
}

TEST(Engine, MultiGraphExample61) {
  // Example 6.1: find friend-sharing pairs in soc_net, project a new
  // `friends` graph, then compose with the register graph to filter pairs
  // living in the same city.
  CypherEngine engine;

  // soc_net: four people; p0-p1 share friend p2; p0-p3 share no friend.
  auto soc = std::make_shared<PropertyGraph>();
  NodeId p0 = soc->CreateNode({"Person"}, {{"name", Value::String("p0")}});
  NodeId p1 = soc->CreateNode({"Person"}, {{"name", Value::String("p1")}});
  NodeId p2 = soc->CreateNode({"Person"}, {{"name", Value::String("p2")}});
  NodeId p3 = soc->CreateNode({"Person"}, {{"name", Value::String("p3")}});
  soc->CreateRelationship(p0, p2, "FRIEND", {{"since", Value::Int(2010)}})
      .value();
  soc->CreateRelationship(p1, p2, "FRIEND", {{"since", Value::Int(2011)}})
      .value();
  soc->CreateRelationship(p0, p3, "FRIEND", {{"since", Value::Int(2000)}})
      .value();
  engine.RegisterUrl("hdfs://cluster/soc_network", soc);

  // register: p0 and p1 live in the same city.
  auto reg = std::make_shared<PropertyGraph>();
  NodeId q0 = reg->CreateNode({"Person"}, {{"name", Value::String("p0")}});
  NodeId q1 = reg->CreateNode({"Person"}, {{"name", Value::String("p1")}});
  NodeId city = reg->CreateNode({"City"}, {{"name", Value::String("Oslo")}});
  reg->CreateRelationship(q0, city, "IN").value();
  reg->CreateRelationship(q1, city, "IN").value();
  engine.RegisterUrl("bolt://cluster/citizens", reg);

  ValueMap params;
  params["duration"] = Value::Int(5);
  auto first = engine.Execute(
      "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\" "
      "MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b) "
      "WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name "
      "WITH DISTINCT a, b "
      "RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)",
      params);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->graphs.size(), 1u);
  GraphPtr friends = first->graphs[0].second;
  EXPECT_EQ(friends->NumNodes(), 2u);  // p0, p1
  EXPECT_EQ(friends->NumRels(), 1u);   // SHARE_FRIEND

  // Composition: the projected graph is addressable by name. Node
  // identity does not carry across graphs, so the composed query joins
  // through the `name` key.
  auto second = engine.Execute(
      "QUERY GRAPH friends "
      "MATCH (a)-[:SHARE_FRIEND]-(b) "
      "WITH a.name AS an, b.name AS bn "
      "FROM GRAPH register AT \"bolt://cluster/citizens\" "
      "MATCH (a2 {name: an})-[:IN]->(c:City)<-[:IN]-(b2 {name: bn}) "
      "RETURN an, bn, c.name AS city");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->table.NumRows(), 2u);  // (p0,p1) and (p1,p0)
}

TEST(Engine, MorphismOptionIsConfigurable) {
  EngineOptions opts;
  opts.morphism = Morphism::kHomomorphism;
  opts.max_var_length = 4;
  CypherEngine engine(opts);
  ASSERT_TRUE(engine.Execute("CREATE (a:N)-[:T]->(a)").ok());
  auto r = engine.Execute("MATCH (x)-[*1..3]->(x) RETURN count(*) AS c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 3);  // loop 1, 2 or 3 times
  EngineOptions iso;
  CypherEngine engine2(iso);
  ASSERT_TRUE(engine2.Execute("CREATE (a:N)-[:T]->(a)").ok());
  auto r2 = engine2.Execute("MATCH (x)-[*1..3]->(x) RETURN count(*) AS c");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->table.rows()[0][0].AsInt(), 1);
}

TEST(Engine, ErrorsCarryCategories) {
  CypherEngine engine;
  EXPECT_EQ(engine.Execute("MATCH (a RETURN a").status().code(),
            StatusCode::kSyntaxError);
  EXPECT_EQ(engine.Execute("MATCH (a) RETURN b").status().code(),
            StatusCode::kSemanticError);
  // Note `1 + 'x'` is legal Cypher (string concatenation); a boolean
  // operand is the type error.
  EXPECT_EQ(engine.Execute("RETURN true + 1").status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(engine.Execute("RETURN 1 / 0").status().code(),
            StatusCode::kEvaluationError);
}

TEST(Engine, UnionDistinctAndAll) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A {v: 1}), (:B {v: 1})").ok());
  auto all = engine.Execute(
      "MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->table.NumRows(), 2u);
  auto dedup = engine.Execute(
      "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v");
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup->table.NumRows(), 1u);
}

TEST(Engine, RandIsDeterministicPerSeed) {
  EngineOptions opts;
  opts.rand_seed = 42;
  CypherEngine a(opts);
  CypherEngine b(opts);
  auto ra = a.Execute("RETURN rand() AS r");
  auto rb = b.Execute("RETURN rand() AS r");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->table.rows()[0][0].AsFloat(),
                   rb->table.rows()[0][0].AsFloat());
}

// ---- Environment override parsing ------------------------------------------
// GQLITE_BATCH_SIZE / GQLITE_THREADS drive whole CI legs; a garbage value
// silently clamped would mean the leg stops testing what it claims to.
// The engine must reject garbage with a clear error naming the variable.

/// Sets (or, with nullptr, unsets) an environment variable for the
/// duration of one test and restores the previous value after (the rest
/// of the suite must not see the garbage).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(EngineEnv, GarbageBatchSizeIsAClearErrorNotAClamp) {
  // (An EMPTY value is treated as unset, per the usual env-var custom.)
  for (const char* garbage :
       {"abc", "12abc", " 8", "-3", "0", "99999999999999999999999",
        "1048577" /* above the 2^20 cap */}) {
    ScopedEnv env("GQLITE_BATCH_SIZE", garbage);
    CypherEngine engine;
    auto r = engine.Execute("RETURN 1 AS one");
    ASSERT_FALSE(r.ok()) << "accepted GQLITE_BATCH_SIZE=" << garbage;
    EXPECT_NE(r.status().ToString().find("GQLITE_BATCH_SIZE"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(EngineEnv, GarbageThreadsIsAClearErrorNotAClamp) {
  for (const char* garbage :
       {"four", "2x", "-1", "0", "12345678901234567890", "257"}) {
    ScopedEnv env("GQLITE_THREADS", garbage);
    CypherEngine engine;
    auto r = engine.Execute("RETURN 1 AS one");
    ASSERT_FALSE(r.ok()) << "accepted GQLITE_THREADS=" << garbage;
    EXPECT_NE(r.status().ToString().find("GQLITE_THREADS"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(EngineEnv, ValidOverridesApply) {
  {
    ScopedEnv env("GQLITE_BATCH_SIZE", "7");
    CypherEngine engine;
    EXPECT_EQ(engine.options().batch_size, 7u);
    EXPECT_TRUE(engine.Execute("RETURN 1 AS one").ok());
  }
  {
    ScopedEnv env("GQLITE_THREADS", "2");
    EngineOptions opts;
    opts.num_threads = 1;  // the override wins over the programmatic value
    CypherEngine engine(opts);
    EXPECT_EQ(engine.options().num_threads, 2u);
    EXPECT_TRUE(engine.Execute("RETURN 1 AS one").ok());
  }
}

TEST(EngineEnv, GarbageSurfacesFromPrepareToo) {
  ScopedEnv env("GQLITE_THREADS", "lots");
  CypherEngine engine;
  auto prepared = engine.Prepare("MATCH (n) RETURN n");
  EXPECT_FALSE(prepared.ok());
  // set_options re-parses: fixing the environment mid-life is possible.
  EXPECT_FALSE(engine.Execute("RETURN 1 AS one").ok());
}

TEST(EngineEnv, ProgrammaticValuesStillClampQuietly) {
  // Only the ENVIRONMENT is held to strict parsing; EngineOptions set in
  // code keep the forgiving clamp (0 means "default", not an error).
  // CI legs export these variables suite-wide; this test is about their
  // absence.
  ScopedEnv no_batch("GQLITE_BATCH_SIZE", nullptr);
  ScopedEnv no_threads("GQLITE_THREADS", nullptr);
  EngineOptions opts;
  opts.batch_size = 0;
  opts.num_threads = 0;
  CypherEngine engine(opts);
  EXPECT_EQ(engine.options().batch_size, 1u);
  EXPECT_EQ(engine.options().num_threads, 1u);
  EXPECT_TRUE(engine.Execute("RETURN 1 AS one").ok());
}

}  // namespace
}  // namespace gqlite
