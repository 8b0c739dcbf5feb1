// Plan-cache subsystem tests: auto-parameterized key normalization, LRU
// eviction order, generation-based invalidation (graph statistics and the
// named-graph catalog), counter correctness, Prepare/Execute semantics,
// and the guarantee that synthetic `$_pN` names never collide with user
// parameters.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/session.h"
#include "src/frontend/canonicalize.h"
#include "src/frontend/parser.h"

namespace gqlite {
namespace {

ValueMap P(std::initializer_list<std::pair<const std::string, Value>> kv) {
  return ValueMap(kv);
}

QueryResult MustRun(CypherEngine& engine, const std::string& q,
                    const ValueMap& params = {}) {
  auto r = engine.Execute(q, params);
  EXPECT_TRUE(r.ok()) << q << "\n  " << r.status().ToString();
  return std::move(r).value();
}

// ---- Canonicalization ------------------------------------------------------

TEST(AutoParameterize, LiteralsBecomeSyntheticParameters) {
  auto q = ParseQuery("MATCH (n {id: 1}) WHERE n.v > 10 RETURN n");
  ASSERT_TRUE(q.ok());
  AutoParameterization ap = AutoParameterize(&*q);
  EXPECT_EQ(ap.count, 2);
  ASSERT_EQ(ap.extracted.size(), 2u);
  EXPECT_EQ(ap.extracted.at("_p0").AsInt(), 1);
  EXPECT_EQ(ap.extracted.at("_p1").AsInt(), 10);
  std::string key = NormalizedQueryKey(*q);
  EXPECT_NE(key.find("$_p0"), std::string::npos) << key;
  EXPECT_NE(key.find("$_p1"), std::string::npos) << key;
}

TEST(AutoParameterize, SameShapeSameKey) {
  auto a = ParseQuery("MATCH (n:Person {id: 1})-[:KNOWS]->(m) "
                      "WHERE m.age > 30 RETURN m.name AS name");
  auto b = ParseQuery("MATCH (n:Person {id: 42})-[:KNOWS]->(m) "
                      "WHERE m.age > 99 RETURN m.name AS name");
  ASSERT_TRUE(a.ok() && b.ok());
  AutoParameterize(&*a);
  AutoParameterize(&*b);
  EXPECT_EQ(NormalizedQueryKey(*a), NormalizedQueryKey(*b));
}

TEST(AutoParameterize, DifferentShapeDifferentKey) {
  auto a = ParseQuery("MATCH (n {id: 1}) RETURN n");
  auto b = ParseQuery("MATCH (n {uid: 1}) RETURN n");  // different key name
  ASSERT_TRUE(a.ok() && b.ok());
  AutoParameterize(&*a);
  AutoParameterize(&*b);
  EXPECT_NE(NormalizedQueryKey(*a), NormalizedQueryKey(*b));
}

TEST(AutoParameterize, ProjectionItemsAndOrderByAreLeftAlone) {
  // Un-aliased return items derive their column name from the expression
  // text, and ORDER BY resolves projected columns by that text — both
  // must keep their literals.
  auto q = ParseQuery("MATCH (n) RETURN n.v + 1 ORDER BY n.v + 1");
  ASSERT_TRUE(q.ok());
  AutoParameterization ap = AutoParameterize(&*q);
  EXPECT_EQ(ap.count, 0);
  std::string key = NormalizedQueryKey(*q);
  EXPECT_EQ(key.find("$_p"), std::string::npos) << key;
}

TEST(AutoParameterize, SkipLimitAreExtracted) {
  auto q = ParseQuery("MATCH (n) RETURN n.v AS v SKIP 1 LIMIT 2");
  ASSERT_TRUE(q.ok());
  AutoParameterization ap = AutoParameterize(&*q);
  EXPECT_EQ(ap.count, 2);
}

TEST(AutoParameterize, SyntheticNamesSkipUserParameters) {
  // `$_p0` is taken by the user; the extracted literal must pick the next
  // free name.
  auto q = ParseQuery("MATCH (n) WHERE n.a = $_p0 AND n.b = 7 RETURN n");
  ASSERT_TRUE(q.ok());
  AutoParameterization ap = AutoParameterize(&*q);
  EXPECT_EQ(ap.count, 1);
  ASSERT_TRUE(ap.extracted.count("_p1"));
  EXPECT_EQ(ap.extracted.at("_p1").AsInt(), 7);
}

// ---- Cache behaviour through the engine ------------------------------------

TEST(PlanCache, LiteralVariantsShareOnePlan) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({id: 1, v: 10}), ({id: 2, v: 20}), "
                  "({id: 3, v: 30})");
  auto r1 = MustRun(engine, "MATCH (n {id: 1}) RETURN n.v AS v");
  auto r2 = MustRun(engine, "MATCH (n {id: 2}) RETURN n.v AS v");
  auto r3 = MustRun(engine, "MATCH (n {id: 3}) RETURN n.v AS v");
  ASSERT_EQ(r1.table.NumRows(), 1u);
  EXPECT_EQ(r1.table.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(r2.table.rows()[0][0].AsInt(), 20);
  EXPECT_EQ(r3.table.rows()[0][0].AsInt(), 30);
  const PlanCacheStats& s = engine.plan_cache_stats();
  EXPECT_EQ(s.misses, 1u);  // first read plans
  EXPECT_EQ(s.hits, 2u);    // the other literals reuse it
  EXPECT_EQ(engine.plan_cache_size(), 1u);
}

TEST(PlanCache, HitCountsAndDistinctQueries) {
  CypherEngine engine;
  MustRun(engine, "CREATE (:A {v: 1})-[:T]->(:B {v: 2})");
  const std::string q1 = "MATCH (a:A) RETURN count(*) AS c";
  const std::string q2 = "MATCH (a:A)-[:T]->(b:B) RETURN count(*) AS c";
  MustRun(engine, q1);
  MustRun(engine, q1);
  MustRun(engine, q2);
  MustRun(engine, q2);
  MustRun(engine, q1);
  const PlanCacheStats& s = engine.plan_cache_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(PlanCache, LruEvictionOrder) {
  EngineOptions opts;
  opts.plan_cache_capacity = 2;
  CypherEngine engine(opts);
  MustRun(engine, "CREATE ({v: 1})");
  const std::string qa = "MATCH (a) RETURN count(*) AS a";
  const std::string qb = "MATCH (b) RETURN count(*) AS b";
  const std::string qc = "MATCH (c) RETURN count(*) AS c";
  MustRun(engine, qa);  // cache: [a]
  MustRun(engine, qb);  // cache: [b, a]
  MustRun(engine, qa);  // promote a: [a, b]
  MustRun(engine, qc);  // evicts b (LRU): [c, a]
  EXPECT_EQ(engine.plan_cache_stats().evictions, 1u);
  uint64_t hits_before = engine.plan_cache_stats().hits;
  MustRun(engine, qa);  // still cached (was promoted)
  EXPECT_EQ(engine.plan_cache_stats().hits, hits_before + 1);
  uint64_t misses_before = engine.plan_cache_stats().misses;
  MustRun(engine, qb);  // was evicted → miss (and evicts a)
  EXPECT_EQ(engine.plan_cache_stats().misses, misses_before + 1);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(PlanCache, InvalidationAfterCreateAndDelete) {
  CypherEngine engine;
  MustRun(engine, "CREATE (:A {v: 1}), (:A {v: 2})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);

  // CREATE changes the statistics generation: the cached plan is stale.
  MustRun(engine, "CREATE (:A {v: 3})");
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 1u);

  // And DELETE does too.
  MustRun(engine, "MATCH (a:A {v: 3}) DELETE a");
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 2u);
}

TEST(PlanCache, PropertyUpdatesDoNotInvalidate) {
  CypherEngine engine;
  MustRun(engine, "CREATE (:A {v: 1})");
  const std::string q = "MATCH (a:A) RETURN a.v AS v";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  // SET only touches a property value: plans do not depend on it, the
  // cached plan stays valid and still sees the new value at runtime.
  MustRun(engine, "MATCH (a:A) SET a.v = 99");
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 99);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 0u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
}

TEST(PlanCache, PropertyDriftPastThresholdInvalidates) {
  // Pure property writes do not bump stats_version, but they move the
  // NDV sketches a cost-sensitive plan baked its selectivities from:
  // past kDataDriftThreshold increments of data_version the entry must
  // re-plan. Below the threshold (the single-SET workload) it must NOT.
  CypherEngine engine;
  MustRun(engine, "CREATE (:A {v: 1}), (:A {v: 2}), (:A {v: 3})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 3);
  MustRun(engine, "MATCH (a:A {v: 1}) SET a.v = 9");  // small drift
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 0u);
  EXPECT_GE(engine.plan_cache_stats().hits, 1u);

  // 3 nodes x 6 rounds = 18 property writes >= the threshold of 16.
  for (int round = 0; round < 6; ++round) {
    MustRun(engine, "MATCH (a:A) SET a.w = " + std::to_string(round));
  }
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_GE(engine.plan_cache_stats().invalidations, 1u);
}

TEST(PlanCache, PropertyRewriteFlipsTheCheaperPlan) {
  // The scenario the drift bound exists for: a property rewrite moves an
  // equality predicate's NDV enough that the cheapest anchor CHANGES.
  // 60 :A nodes all share p = 0, so `a.p = 0` is unselective and the
  // 2-node :B scan anchors the chain. After rewriting p to distinct
  // values the same predicate selects ~1 row and the anchor flips to :A.
  CypherEngine engine;
  for (int i = 0; i < 60; ++i) {
    MustRun(engine, "CREATE (:A {id: " + std::to_string(i) + ", p: 0})");
  }
  MustRun(engine, "CREATE (:B {id: 100}), (:B {id: 101})");
  MustRun(engine,
          "MATCH (a:A {id: 0}), (b:B {id: 100}) CREATE (a)-[:R]->(b)");
  const std::string q =
      "MATCH (a:A)-[:R]->(b:B) WHERE a.p = 0 RETURN count(*) AS c";

  auto before = engine.Explain(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_NE(before->find("NodeByLabelScan(b:B)"), std::string::npos)
      << *before;
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);

  // 60 property writes: far past the drift threshold, and the p sketch
  // now holds ~61 distinct values.
  MustRun(engine, "MATCH (a:A) SET a.p = a.id + 1");
  auto after = engine.Explain(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->find("NodeByLabelScan(a:A)"), std::string::npos)
      << *after;

  // The cached entry from the pre-rewrite execution must not serve the
  // stale plan: the lookup invalidates and re-plans.
  uint64_t invalidations_before = engine.plan_cache_stats().invalidations;
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 0);
  EXPECT_GT(engine.plan_cache_stats().invalidations, invalidations_before);
}

TEST(PlanCache, LabelChangesInvalidate) {
  CypherEngine engine;
  MustRun(engine, "CREATE (:A {v: 1}), ({v: 2})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  MustRun(engine, "MATCH (n {v: 2}) SET n:A");
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_GE(engine.plan_cache_stats().invalidations, 1u);
}

TEST(PlanCache, CatalogRebindInvalidates) {
  CypherEngine engine;
  auto other = std::make_shared<PropertyGraph>();
  other->CreateNode({"A"}, {});
  engine.RegisterGraph("g", other);
  const std::string q = "FROM GRAPH g MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
  // Rebinding the name to a different graph must stale the plan.
  auto replacement = std::make_shared<PropertyGraph>();
  replacement->CreateNode({"A"}, {});
  replacement->CreateNode({"A"}, {});
  engine.RegisterGraph("g", replacement);
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_GE(engine.plan_cache_stats().invalidations, 1u);
}

TEST(PlanCache, DisabledCacheStillAnswers) {
  EngineOptions opts;
  opts.use_plan_cache = false;
  CypherEngine engine(opts);
  MustRun(engine, "CREATE ({v: 1})");
  const std::string q = "MATCH (n) RETURN n.v AS v";
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(MustRun(engine, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 0u);
  EXPECT_EQ(engine.plan_cache_stats().misses, 0u);
}

TEST(PlanCache, ZeroCapacityDisables) {
  EngineOptions opts;
  opts.plan_cache_capacity = 0;
  CypherEngine engine(opts);
  MustRun(engine, "CREATE ({v: 1})");
  MustRun(engine, "MATCH (n) RETURN n.v AS v");
  MustRun(engine, "MATCH (n) RETURN n.v AS v");
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(PlanCache, InterpreterModeBypassesCache) {
  EngineOptions opts;
  opts.mode = ExecutionMode::kInterpreter;
  CypherEngine engine(opts);
  MustRun(engine, "CREATE ({v: 1})");
  MustRun(engine, "MATCH (n) RETURN n.v AS v");
  MustRun(engine, "MATCH (n) RETURN n.v AS v");
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(PlanCache, DerivedColumnNamesSurviveCanonicalization) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({v: 41})");
  auto r = MustRun(engine, "MATCH (n) RETURN n.v + 1");
  ASSERT_EQ(r.table.fields().size(), 1u);
  EXPECT_EQ(r.table.fields()[0], "(n.v + 1)");
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 42);
}

TEST(PlanCache, OrderByOverProjectedAggregateStillWorks) {
  CypherEngine engine;
  MustRun(engine,
          "CREATE ({g: 1}), ({g: 1}), ({g: 2}), ({g: 2}), ({g: 2})");
  // ORDER BY count(*) + 1 resolves by expression text against the
  // projected column — canonicalization must not break the match.
  auto r = MustRun(engine,
                   "MATCH (n) RETURN n.g AS g, count(*) + 1 "
                   "ORDER BY count(*) + 1 DESC");
  ASSERT_EQ(r.table.NumRows(), 2u);
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(r.table.rows()[1][0].AsInt(), 1);
}

TEST(PlanCache, DifferentEngineOptionsDoNotShareEntries) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({v: 1})-[:T]->({v: 2})");
  const std::string q = "MATCH (a)-[:T]->(b) RETURN count(*) AS c";
  MustRun(engine, q);
  // max_var_length is part of the fingerprint and, unlike the planner
  // fields, never rewritten by an environment override.
  EngineOptions opts = engine.options();
  opts.max_var_length = 10;
  engine.set_options(opts);
  MustRun(engine, q);  // different fingerprint → separate entry
  EXPECT_EQ(engine.plan_cache_size(), 2u);
  EXPECT_EQ(engine.plan_cache_stats().misses, 2u);
}

TEST(PlanCache, QuotedStringLiteralsDoNotCollide) {
  // Projection-item literals stay in the normalized text, where
  // FormatValue prints strings unescaped: `'a' + 'b'` and the single
  // literal `a' + 'b` would unparse identically. The cache key's literal
  // digest (length-prefixed) must keep them apart.
  CypherEngine engine;
  auto r1 = MustRun(engine, "RETURN 'a' + 'b' AS x");
  auto r2 = MustRun(engine, "RETURN 'a\\' + \\'b' AS x");
  EXPECT_EQ(r1.table.rows()[0][0].AsString(), "ab");
  EXPECT_EQ(r2.table.rows()[0][0].AsString(), "a' + 'b");
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(PlanCache, FloatLiteralsBeyondDisplayPrecisionDoNotCollide) {
  // FormatValue prints floats at display precision; the digest uses
  // round-trip precision so near-identical float literals stay distinct.
  CypherEngine engine;
  auto r1 = MustRun(engine, "RETURN 1.0 AS x");
  auto r2 = MustRun(engine, "RETURN 1.0000000000000002 AS x");
  EXPECT_NE(r1.table.rows()[0][0].AsFloat(), r2.table.rows()[0][0].AsFloat());
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(PlanCache, SweepReleasesStaleEntriesOnCatalogChange) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({v: 1})");
  MustRun(engine, "MATCH (n) RETURN n.v AS v");
  EXPECT_EQ(engine.plan_cache_size(), 1u);
  // A write rollback re-registers the restored default graph, which
  // strands the entry; the next read query (any key) sweeps it so the
  // abandoned head is released promptly.
  auto writer = engine.CreateSession();
  ASSERT_TRUE(writer->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(writer->Execute("CREATE ({v: 2})").ok());
  ASSERT_TRUE(writer->Rollback().ok());
  MustRun(engine, "MATCH (m) RETURN count(*) AS c");
  EXPECT_EQ(engine.plan_cache_size(), 1u);  // stale entry swept
  EXPECT_GE(engine.plan_cache_stats().invalidations, 1u);
  // And queries actually see the restored default graph.
  auto r = MustRun(engine, "MATCH (n) RETURN n.v AS v");
  ASSERT_EQ(r.table.NumRows(), 1u);
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 1);
}

// ---- Prepare / Execute -----------------------------------------------------

TEST(Prepare, ExecuteWithDifferentParamsMatchesFreshPlanning) {
  EngineOptions cold_opts;
  cold_opts.use_plan_cache = false;
  CypherEngine cached, fresh(cold_opts);
  const char* setup =
      "CREATE (:P {id: 1, v: 10})-[:T]->(:P {id: 2, v: 20}), "
      "(:P {id: 2, v: 20})-[:T]->(:P {id: 3, v: 30})";
  MustRun(cached, setup);
  MustRun(fresh, setup);

  auto stmt = cached.Prepare(
      "MATCH (a:P {id: $id})-[:T]->(b) RETURN b.v AS v");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE(stmt->updating());
  for (int64_t id = 1; id <= 3; ++id) {
    auto got = cached.Execute(*stmt, P({{"id", Value::Int(id)}}));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = fresh.Execute("MATCH (a:P {id: $id})-[:T]->(b) "
                              "RETURN b.v AS v",
                              P({{"id", Value::Int(id)}}));
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(got->table.SameBag(want->table)) << "id=" << id;
  }
  // One plan, reused for every execution after the first.
  EXPECT_EQ(cached.plan_cache_stats().misses, 1u);
  EXPECT_EQ(cached.plan_cache_stats().hits, 2u);
}

TEST(Prepare, ExtractedLiteralsActAsDefaults) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({id: 7, v: 70})");
  auto stmt = engine.Prepare("MATCH (n {id: 7}) RETURN n.v AS v");
  ASSERT_TRUE(stmt.ok());
  auto r = engine.Execute(*stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.NumRows(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 70);
}

TEST(Prepare, UserParamNamedLikeSyntheticIsNotShadowed) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({a: 5, b: 7})");
  // The query uses $_p0 itself; the literal 7 must get a different
  // synthetic name, and the user's $_p0 binding must win for $_p0.
  auto stmt = engine.Prepare(
      "MATCH (n) WHERE n.a = $_p0 AND n.b = 7 RETURN count(*) AS c");
  ASSERT_TRUE(stmt.ok());
  auto hit = engine.Execute(*stmt, P({{"_p0", Value::Int(5)}}));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->table.rows()[0][0].AsInt(), 1);
  auto miss = engine.Execute(*stmt, P({{"_p0", Value::Int(6)}}));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->table.rows()[0][0].AsInt(), 0);
}

TEST(Prepare, UpdatingQueriesRunOnTheInterpreter) {
  CypherEngine engine;
  auto stmt = engine.Prepare("CREATE (:A {v: $v})");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->updating());
  for (int64_t v = 1; v <= 3; ++v) {
    auto r = engine.Execute(*stmt, P({{"v", Value::Int(v)}}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.nodes_created, 1);
  }
  auto check = MustRun(engine, "MATCH (a:A) RETURN sum(a.v) AS s");
  EXPECT_EQ(check.table.rows()[0][0].AsInt(), 6);
  // Updating queries never enter the plan cache.
  EXPECT_EQ(engine.plan_cache_size(), 1u);  // only the MATCH above
}

TEST(Prepare, EmptyHandleIsAnError) {
  CypherEngine engine;
  PreparedQuery empty;
  auto r = engine.Execute(empty);
  EXPECT_FALSE(r.ok());
}

TEST(Prepare, RepeatedExecutionOfCachedPlanIsStable) {
  CypherEngine engine;
  MustRun(engine, "CREATE ({v: 1}), ({v: 2}), ({v: 3})");
  auto stmt = engine.Prepare(
      "MATCH (n) WHERE n.v >= $lo RETURN n.v AS v ORDER BY v");
  ASSERT_TRUE(stmt.ok());
  auto first = engine.Execute(*stmt, P({{"lo", Value::Int(2)}}));
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = engine.Execute(*stmt, P({{"lo", Value::Int(2)}}));
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(first->table.SameBag(again->table));
  }
}

}  // namespace
}  // namespace gqlite
