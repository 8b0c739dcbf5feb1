// Public-API tests: Database end to end — updates, MERGE, parameters,
// EXPLAIN, temporal values, Cypher 10 multi-graph composition
// (Example 6.1), and error reporting.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fixtures/generators.h"
#include "fixtures/paper_graphs.h"
#include "src/core/database.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

// Database is the only front door: nothing outside src/core/ can build an
// engine.
static_assert(!std::is_constructible_v<CypherEngine, EngineOptions>);
static_assert(!std::is_default_constructible_v<CypherEngine>);

TEST(Engine, QuickstartCreateAndMatch) {
  Database db = testutil::OpenOn();
  auto created = db.Execute(
      "CREATE (a:Person {name: 'Ada'})-[:KNOWS {since: 1842}]->"
      "(b:Person {name: 'Charles'})");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->stats.nodes_created, 2);
  EXPECT_EQ(created->stats.rels_created, 1);

  auto rows = db.Execute(
      "MATCH (a:Person)-[k:KNOWS]->(b) RETURN a.name, k.since, b.name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->table.NumRows(), 1u);
  EXPECT_EQ(rows->table.rows()[0][0].AsString(), "Ada");
  EXPECT_EQ(rows->table.rows()[0][1].AsInt(), 1842);
  EXPECT_EQ(rows->table.rows()[0][2].AsString(), "Charles");
}

TEST(Engine, BothModesAgreeOnPaperQuery) {
  const char* q =
      "MATCH (r:Researcher) "
      "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
      "WITH r, count(s) AS studentsSupervised "
      "MATCH (r)-[:AUTHORS]->(p1:Publication) "
      "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
      "RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount";

  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  Database interp_db = testutil::OpenOn(nullptr, interp_opts);
  EngineOptions volcano_opts;
  volcano_opts.mode = ExecutionMode::kVolcano;
  Database volcano_db = testutil::OpenOn(nullptr, volcano_opts);

  // Run against the paper graph by copying it into each database's graph.
  auto copy_into = [&](Database& e) {
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
  copy_into(interp_db);
  copy_into(volcano_db);

  auto a = interp_db.Execute(q);
  auto b = volcano_db.Execute(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->table.SameBag(b->table))
      << "interpreter:\n" << a->table.ToString() << "volcano:\n"
      << b->table.ToString();
  EXPECT_EQ(a->table.NumRows(), 2u);
}

TEST(Engine, SetRemoveDelete) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:X {v: 1}), (:X {v: 2})").ok());
  auto set = db.Execute("MATCH (n:X) SET n.w = n.v * 10, n:Tagged");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->stats.properties_set, 2);
  EXPECT_EQ(set->stats.labels_added, 2);

  auto check = db.Execute("MATCH (n:Tagged) RETURN n.w ORDER BY n.w");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->table.NumRows(), 2u);
  EXPECT_EQ(check->table.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(check->table.rows()[1][0].AsInt(), 20);

  auto remove = db.Execute("MATCH (n:X) REMOVE n.v, n:Tagged");
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove->stats.labels_removed, 2);
  auto gone = db.Execute("MATCH (n:Tagged) RETURN n");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->table.NumRows(), 0u);

  auto del = db.Execute("MATCH (n:X) DELETE n");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->stats.nodes_deleted, 2);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 0u);
}

TEST(Engine, DeleteWithRelationshipsRequiresDetach) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (a:A)-[:T]->(b:B)").ok());
  auto bad = db.Execute("MATCH (a:A) DELETE a");
  EXPECT_FALSE(bad.ok());
  auto good = db.Execute("MATCH (a:A) DETACH DELETE a");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->stats.nodes_deleted, 1);
  EXPECT_EQ(good->stats.rels_deleted, 1);
}

TEST(Engine, MergeMatchesOrCreates) {
  Database db = testutil::OpenOn();
  auto first = db.Execute(
      "MERGE (n:City {name: 'Oslo'}) ON CREATE SET n.created = true "
      "ON MATCH SET n.matched = true RETURN n.created, n.matched");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.nodes_created, 1);
  EXPECT_TRUE(first->table.rows()[0][0].AsBool());
  EXPECT_TRUE(first->table.rows()[0][1].is_null());

  auto second = db.Execute(
      "MERGE (n:City {name: 'Oslo'}) ON CREATE SET n.created = true "
      "ON MATCH SET n.matched = true RETURN n.created, n.matched");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.nodes_created, 0);
  EXPECT_TRUE(second->table.rows()[0][1].AsBool());
  EXPECT_EQ(db.Snapshot()->NumNodes(), 1u);
}

TEST(Engine, MergeRelationship) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:P {id: 1}), (:P {id: 2})").ok());
  const char* q =
      "MATCH (a:P {id: 1}), (b:P {id: 2}) MERGE (a)-[r:LINKED]->(b) "
      "RETURN r";
  auto first = db.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.rels_created, 1);
  auto second = db.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.rels_created, 0);
  EXPECT_EQ(db.Snapshot()->NumRels(), 1u);
}

TEST(Engine, ParametersAndInjectionSafety) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(
      db.Execute("CREATE (:U {name: 'alice'}), (:U {name: 'bob'})").ok());
  ValueMap params;
  params["who"] = Value::String("alice");
  auto r = db.Execute("MATCH (u:U {name: $who}) RETURN u.name", params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.NumRows(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].AsString(), "alice");
  // A malicious parameter value stays a value (no reparsing).
  params["who"] = Value::String("' OR 1=1 //");
  auto r2 = db.Execute("MATCH (u:U {name: $who}) RETURN u.name", params);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->table.NumRows(), 0u);
  // Missing parameter errors cleanly.
  auto r3 = db.Execute("MATCH (u:U {name: $nope}) RETURN u");
  EXPECT_FALSE(r3.ok());
}

TEST(Engine, ExplainShowsVolcanoOperators) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto plan = db.Explain("MATCH (a:A)-[r:T]->(b:B) WHERE a.x = 1 RETURN a, b");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("NodeByLabelScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Expand"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Projection"), std::string::npos) << *plan;
}

TEST(Engine, TemporalEndToEnd) {
  Database db = testutil::OpenOn();
  auto r = db.Execute(
      "RETURN date('2018-06-10') + duration('P1M') AS d, "
      "datetime('2018-06-10T14:00:00Z').epochSeconds AS es, "
      "duration('PT90M').minutes AS mins");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsDate().ToString(), "2018-07-10");
  EXPECT_EQ(r->table.rows()[0][1].AsInt(), 1528639200);
  EXPECT_EQ(r->table.rows()[0][2].AsInt(), 90);
}

TEST(Engine, TemporalPropertiesRoundTrip) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:Event {at: datetime("
                         "'2018-06-10T09:30:00+02:00')})").ok());
  auto r = db.Execute(
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
  Database db = testutil::OpenOn();

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
  db.RegisterUrl("hdfs://cluster/soc_network", soc);

  // register: p0 and p1 live in the same city.
  auto reg = std::make_shared<PropertyGraph>();
  NodeId q0 = reg->CreateNode({"Person"}, {{"name", Value::String("p0")}});
  NodeId q1 = reg->CreateNode({"Person"}, {{"name", Value::String("p1")}});
  NodeId city = reg->CreateNode({"City"}, {{"name", Value::String("Oslo")}});
  reg->CreateRelationship(q0, city, "IN").value();
  reg->CreateRelationship(q1, city, "IN").value();
  db.RegisterUrl("bolt://cluster/citizens", reg);

  ValueMap params;
  params["duration"] = Value::Int(5);
  auto first = db.Execute(
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
  auto second = db.Execute(
      "QUERY GRAPH friends "
      "MATCH (a)-[:SHARE_FRIEND]-(b) "
      "WITH a.name AS an, b.name AS bn "
      "FROM GRAPH register AT \"bolt://cluster/citizens\" "
      "MATCH (a2 {name: an})-[:IN]->(c:City)<-[:IN]-(b2 {name: bn}) "
      "RETURN an, bn, c.name AS city");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->table.NumRows(), 2u);  // (p0,p1) and (p1,p0)
}

TEST(Engine, ExplainRegistersNoCatalogName) {
  // EXPLAIN plans without running: the name `FROM GRAPH x AT "url"` binds
  // must not reach the catalog. Executing the same statement binds it.
  Database db = testutil::OpenOn();
  auto ext = std::make_shared<PropertyGraph>();
  ext->CreateNode({"Ext"});
  db.RegisterUrl("hdfs://cluster/x", ext);
  const char* by_url =
      "FROM GRAPH x AT \"hdfs://cluster/x\" MATCH (n) RETURN n";
  const char* by_name = "FROM GRAPH x MATCH (n) RETURN count(n) AS c";

  auto plan = db.Explain(by_url);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(db.Execute(by_name).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(db.Execute(by_url).ok());
  auto r = db.Execute(by_name);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(Engine, MorphismOptionIsConfigurable) {
  EngineOptions opts;
  opts.morphism = Morphism::kHomomorphism;
  opts.max_var_length = 4;
  Database db = testutil::OpenOn(nullptr, opts);
  ASSERT_TRUE(db.Execute("CREATE (a:N)-[:T]->(a)").ok());
  auto r = db.Execute("MATCH (x)-[*1..3]->(x) RETURN count(*) AS c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 3);  // loop 1, 2 or 3 times
  EngineOptions iso;
  Database db2 = testutil::OpenOn(nullptr, iso);
  ASSERT_TRUE(db2.Execute("CREATE (a:N)-[:T]->(a)").ok());
  auto r2 = db2.Execute("MATCH (x)-[*1..3]->(x) RETURN count(*) AS c");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->table.rows()[0][0].AsInt(), 1);
}

TEST(Engine, ErrorsCarryCategories) {
  Database db = testutil::OpenOn();
  EXPECT_EQ(db.Execute("MATCH (a RETURN a").status().code(),
            StatusCode::kSyntaxError);
  EXPECT_EQ(db.Execute("MATCH (a) RETURN b").status().code(),
            StatusCode::kSemanticError);
  // Note `1 + 'x'` is legal Cypher (string concatenation); a boolean
  // operand is the type error.
  EXPECT_EQ(db.Execute("RETURN true + 1").status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(db.Execute("RETURN 1 / 0").status().code(),
            StatusCode::kEvaluationError);
}

TEST(Engine, UnionDistinctAndAll) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:A {v: 1}), (:B {v: 1})").ok());
  auto all = db.Execute(
      "MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->table.NumRows(), 2u);
  auto dedup = db.Execute(
      "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v");
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup->table.NumRows(), 1u);
}

TEST(Engine, RandIsDeterministicPerSeed) {
  EngineOptions opts;
  opts.rand_seed = 42;
  Database a = testutil::OpenOn(nullptr, opts);
  Database b = testutil::OpenOn(nullptr, opts);
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
// Opening a database must reject garbage with a clear error naming the
// variable.

// ---- Compiled expressions -------------------------------------------------
// The Volcano runtime compiles each operator's expressions once per plan
// and binds them in every Open(); a cached plan is rebound to each
// execution's graph and parameters. These run on the default options:
// Volcano, plan cache on.

/// The single integer of `r`'s single row, or -1.
int64_t SingleInt(const Result<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->table.NumRows() != 1) return -1;
  return r->table.rows()[0][0].AsInt();
}

TEST(CompiledExprs, CachedPlanBindsKeysAtEveryOpen) {
  // No node has key `k` when the plan is compiled and first run, so that
  // execution binds `k` as absent. The SET interns it; the cached plan
  // must resolve it again at its next Open(), both on the same live graph
  // object (inside the write transaction) and on the snapshot the commit
  // publishes.
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:X {v: 1}), (:X {v: 2}), (:X {v: 3})").ok());
  auto prepared =
      db.Prepare("MATCH (n:X) WHERE n.k = $v RETURN count(n) AS c");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ValueMap params{{"v", Value::Int(7)}};

  auto session = db.CreateSession();
  ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
  EXPECT_EQ(SingleInt(session->Execute(*prepared, params)), 0);
  ASSERT_TRUE(session->Execute("MATCH (n:X) WHERE n.v <= 2 SET n.k = 7").ok());
  uint64_t hits = db.engine().plan_cache_stats().hits;
  EXPECT_EQ(SingleInt(session->Execute(*prepared, params)), 2);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits + 1);
  ASSERT_TRUE(session->Commit().ok());

  hits = db.engine().plan_cache_stats().hits;
  EXPECT_EQ(SingleInt(db.Execute(*prepared, params)), 2);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits + 1);
}

TEST(CompiledExprs, CachedPlanRebindsParameters) {
  Database db = testutil::OpenOn();
  ASSERT_TRUE(db.Execute("CREATE (:X {v: 1}), (:X {v: 2}), (:X {v: 2})").ok());
  auto prepared =
      db.Prepare("MATCH (n:X) WHERE n.v = $v RETURN count(n) AS c");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ValueMap one{{"v", Value::Int(1)}};
  ValueMap two{{"v", Value::Int(2)}};
  EXPECT_EQ(SingleInt(db.Execute(*prepared, one)), 1);
  uint64_t hits = db.engine().plan_cache_stats().hits;
  EXPECT_EQ(SingleInt(db.Execute(*prepared, two)), 2);
  EXPECT_EQ(SingleInt(db.Execute(*prepared, one)), 1);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits + 2);

  auto missing = db.Execute(*prepared, ValueMap{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().ToString(),
            "EvaluationError: missing query parameter $v");
}

/// Opens one database per runtime over the same statement.
struct BothRuntimes {
  explicit BothRuntimes(const char* setup) {
    EngineOptions interp;
    interp.mode = ExecutionMode::kInterpreter;
    dbs.push_back(testutil::OpenOn(nullptr, interp));
    dbs.push_back(testutil::OpenOn());
    for (Database& db : dbs) {
      auto r = db.Execute(setup);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  std::vector<Database> dbs;  // interpreter, Volcano
};

TEST(CompiledExprs, LeavesAgreeWithTheInterpreter) {
  BothRuntimes both(
      "CREATE (a:X:Y {name: 'a', v: 1})-[:R {w: 5}]->(b:X {name: 'b', v: 2}),"
      " (b)-[:R {w: 1}]->(a), (a)-[:R]->(:Z {name: 'c'})");
  const ValueMap params{{"w", Value::Int(5)}};
  const std::vector<std::pair<const char*, size_t>> queries = {
      // A relationship property in a filter, and fused into the expand.
      {"MATCH (a)-[r:R]->(b) WHERE r.w > 2 RETURN a.name, b.name", 1},
      {"MATCH (a)-[r:R {w: $w}]->(b) RETURN a.name, b.name", 1},
      {"MATCH (a)-[r:R]->(b) WHERE r.w IS NULL RETURN b.name", 1},
      // Label checks, one of a label no node carries.
      {"MATCH (n) WHERE n:X AND NOT n:Y RETURN n.name", 1},
      {"MATCH (n) WHERE n:Nope OR n.v IS NULL RETURN n.name", 1},
      // Properties of map values: from a row, of a temporary map, nested.
      {"UNWIND [{a: 1, b: 'x'}, {a: 2, b: 'y'}] AS m WITH m WHERE m.a = 2 "
       "RETURN m.b",
       1},
      {"UNWIND [1, 2] AS x RETURN {v: x}.v AS y", 2},
      {"WITH {a: {b: 5}} AS m RETURN m.a.b, m.nope", 1},
      // Items, grouping keys, aggregate arguments and ORDER BY keys.
      {"MATCH (n:X) RETURN n.name, n.v * 10 + 1 AS w ORDER BY w DESC", 2},
      {"MATCH (n:X) RETURN n.name ORDER BY n.v DESC", 2},
      {"MATCH (n) RETURN n.v % 2 AS parity, count(*) AS c, "
       "collect(n.name) AS names ORDER BY parity",
       3},
      {"MATCH (n:X) WITH n.v AS v, n WHERE v > 1 RETURN n.name", 1},
      {"MATCH (n) UNWIND labels(n) AS l RETURN l, count(*) ORDER BY l", 3},
  };
  for (const auto& [q, rows] : queries) {
    auto expected = both.dbs[0].Execute(q, params);
    auto got = both.dbs[1].Execute(q, params);
    ASSERT_TRUE(expected.ok()) << q << ": " << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->table.NumRows(), rows) << q;
    EXPECT_EQ(got->table.ToString(), expected->table.ToString()) << q;
  }
}

TEST(CompiledExprs, ErrorsMatchTheInterpreter) {
  BothRuntimes both(
      "CREATE (:X {name: 'a', v: 1}), (:L {a: 1, z: 1, b: 'x'}),"
      " (:L {a: 1, z: 0, b: 2})");
  const char* queries[] = {
      "MATCH (n:X) WHERE n.name AND 1/0 = 1 RETURN n",
      "MATCH (n:X) WHERE n.v RETURN n",
      // AND, OR and XOR evaluate both sides before checking either.
      "MATCH (n:X) WHERE n.name OR 1/0 = 1 RETURN n",
      "MATCH (n:X) WHERE n.name XOR n.v = 1 RETURN n",
      "MATCH (n:X) WHERE n.v = 1 OR n.name RETURN n",
      "MATCH (n:X) WHERE NOT n.v RETURN n",
      "MATCH (n:X) WHERE n.v.year = 1 RETURN n",
      "MATCH (n:X) RETURN n.v - n.name AS bad",
      "MATCH (n:X) RETURN n.name ORDER BY n.v / 0",
      "MATCH (n:X) RETURN count(n.v / 0)",
      "MATCH (n:X) RETURN n.v / 0 AS k, count(*)",
      "MATCH (n:X) WHERE n.v = $missing RETURN n",
      "UNWIND [1] AS x RETURN x / 0",
      // A WHERE with a non-predicate conjunct stays one filter, so AND
      // raises its own type error, even when the other conjunct is
      // false for the row.
      "MATCH (n:X) WHERE n.name AND true RETURN n",
      "MATCH (n:X) WHERE n.name AND n.v = 1 RETURN n",
      "MATCH (n:X) WHERE n.v = 2 AND n.name RETURN n",
      // Conjuncts fused into the scan run per row in WHERE order, as the
      // interpreter evaluates AND: the first row's second conjunct fails
      // before the second row's first conjunct divides by zero.
      "MATCH (n:L) WHERE n.a / n.z = 1 AND n.b - 1 = 1 RETURN n.a",
  };
  for (const char* q : queries) {
    auto expected = both.dbs[0].Execute(q);
    auto got = both.dbs[1].Execute(q);
    ASSERT_FALSE(expected.ok()) << q;
    ASSERT_FALSE(got.ok()) << q;
    EXPECT_EQ(got.status().ToString(), expected.status().ToString()) << q;
  }
}

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
    auto db = Database::OpenInMemory();
    ASSERT_FALSE(db.ok()) << "accepted GQLITE_BATCH_SIZE=" << garbage;
    EXPECT_NE(db.status().ToString().find("GQLITE_BATCH_SIZE"),
              std::string::npos)
        << db.status().ToString();
  }
}

TEST(EngineEnv, GarbageThreadsIsAClearErrorNotAClamp) {
  for (const char* garbage :
       {"four", "2x", "-1", "0", "12345678901234567890", "257"}) {
    ScopedEnv env("GQLITE_THREADS", garbage);
    auto db = Database::OpenInMemory();
    ASSERT_FALSE(db.ok()) << "accepted GQLITE_THREADS=" << garbage;
    EXPECT_NE(db.status().ToString().find("GQLITE_THREADS"),
              std::string::npos)
        << db.status().ToString();
  }
}

TEST(EngineEnv, ValidOverridesApply) {
  {
    ScopedEnv env("GQLITE_BATCH_SIZE", "7");
    Database db = testutil::OpenOn();
    EXPECT_EQ(db.engine().options().batch_size, 7u);
    EXPECT_TRUE(db.Execute("RETURN 1 AS one").ok());
  }
  {
    ScopedEnv env("GQLITE_THREADS", "2");
    EngineOptions opts;
    opts.num_threads = 1;  // the override wins over the programmatic value
    Database db = testutil::OpenOn(nullptr, opts);
    EXPECT_EQ(db.engine().options().num_threads, 2u);
    EXPECT_TRUE(db.Execute("RETURN 1 AS one").ok());
  }
}

TEST(EngineEnv, GarbageFailsAtOpen) {
  ScopedEnv env("GQLITE_THREADS", "lots");
  // A durable open fails before it creates the directory or its log.
  std::string dir = ::testing::TempDir() + "gqlite_engine_env_garbage";
  std::filesystem::remove_all(dir);
  auto durable = Database::Open(dir);
  EXPECT_FALSE(durable.ok());
  EXPECT_NE(durable.status().ToString().find("GQLITE_THREADS"),
            std::string::npos)
      << durable.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir));
  auto mem = Database::OpenInMemory();
  EXPECT_FALSE(mem.ok());
  EXPECT_NE(mem.status().ToString().find("GQLITE_THREADS"),
            std::string::npos)
      << mem.status().ToString();
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
  Database db = testutil::OpenOn(nullptr, opts);
  EXPECT_EQ(db.engine().options().batch_size, 1u);
  EXPECT_EQ(db.engine().options().num_threads, 1u);
  EXPECT_TRUE(db.Execute("RETURN 1 AS one").ok());
}

}  // namespace
}  // namespace gqlite
