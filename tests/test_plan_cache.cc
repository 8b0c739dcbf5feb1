// Plan-cache subsystem tests: auto-parameterized key normalization, LRU
// eviction order, generation-based invalidation (the default graph's
// statistics), FROM GRAPH statements bypassing the cache, counter
// correctness, Prepare/Execute semantics, and the guarantee that
// synthetic `$_pN` names never collide with user parameters.

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/frontend/canonicalize.h"
#include "src/frontend/parser.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

ValueMap P(std::initializer_list<std::pair<const std::string, Value>> kv) {
  return ValueMap(kv);
}

QueryResult MustRun(Database& db, const std::string& q,
                    const ValueMap& params = {}) {
  auto r = db.Execute(q, params);
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

  // Literals inside a pattern-predicate property map and a CASE branch.
  auto c = ParseQuery("MATCH (n) WHERE (n)-->({v: 1}) AND "
                      "CASE WHEN n.x > 0 THEN 'a' ELSE 'b' END = 'a' "
                      "RETURN n.v AS v");
  auto d = ParseQuery("MATCH (n) WHERE (n)-->({v: 2}) AND "
                      "CASE WHEN n.x > 0 THEN 'z' ELSE 'b' END = 'a' "
                      "RETURN n.v AS v");
  ASSERT_TRUE(c.ok() && d.ok());
  AutoParameterize(&*c);
  AutoParameterize(&*d);
  EXPECT_EQ(NormalizedQueryKey(*c), NormalizedQueryKey(*d));
  EXPECT_NE(NormalizedQueryKey(*a), NormalizedQueryKey(*c));
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

// ---- Cache behaviour through the database ----------------------------------

TEST(PlanCache, LiteralVariantsShareOnePlan) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({id: 1, v: 10}), ({id: 2, v: 20}), "
              "({id: 3, v: 30})");
  auto r1 = MustRun(db, "MATCH (n {id: 1}) RETURN n.v AS v");
  auto r2 = MustRun(db, "MATCH (n {id: 2}) RETURN n.v AS v");
  auto r3 = MustRun(db, "MATCH (n {id: 3}) RETURN n.v AS v");
  ASSERT_EQ(r1.table.NumRows(), 1u);
  EXPECT_EQ(r1.table.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(r2.table.rows()[0][0].AsInt(), 20);
  EXPECT_EQ(r3.table.rows()[0][0].AsInt(), 30);
  const PlanCacheStats& s = db.engine().plan_cache_stats();
  EXPECT_EQ(s.misses, 1u);  // first read plans
  EXPECT_EQ(s.hits, 2u);    // the other literals reuse it
  EXPECT_EQ(db.engine().plan_cache().size(), 1u);
}

TEST(PlanCache, HitCountsAndDistinctQueries) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE (:A {v: 1})-[:T]->(:B {v: 2})");
  const std::string q1 = "MATCH (a:A) RETURN count(*) AS c";
  const std::string q2 = "MATCH (a:A)-[:T]->(b:B) RETURN count(*) AS c";
  MustRun(db, q1);
  MustRun(db, q1);
  MustRun(db, q2);
  MustRun(db, q2);
  MustRun(db, q1);
  const PlanCacheStats& s = db.engine().plan_cache_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(db.engine().plan_cache().size(), 2u);
}

TEST(PlanCache, LruEvictionOrder) {
  EngineOptions opts;
  opts.plan_cache_capacity = 2;
  Database db = testutil::OpenOn(nullptr, opts);
  MustRun(db, "CREATE ({v: 1})");
  const std::string qa = "MATCH (a) RETURN count(*) AS a";
  const std::string qb = "MATCH (b) RETURN count(*) AS b";
  const std::string qc = "MATCH (c) RETURN count(*) AS c";
  MustRun(db, qa);  // cache: [a]
  MustRun(db, qb);  // cache: [b, a]
  MustRun(db, qa);  // promote a: [a, b]
  MustRun(db, qc);  // evicts b (LRU): [c, a]
  EXPECT_EQ(db.engine().plan_cache_stats().evictions, 1u);
  uint64_t hits_before = db.engine().plan_cache_stats().hits;
  MustRun(db, qa);  // still cached (was promoted)
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits_before + 1);
  uint64_t misses_before = db.engine().plan_cache_stats().misses;
  MustRun(db, qb);  // was evicted → miss (and evicts a)
  EXPECT_EQ(db.engine().plan_cache_stats().misses, misses_before + 1);
  EXPECT_EQ(db.engine().plan_cache().size(), 2u);
}

TEST(PlanCache, InvalidationAfterCreateAndDelete) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE (:A {v: 1}), (:A {v: 2})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, 1u);

  // CREATE changes the statistics generation: the cached plan is stale.
  MustRun(db, "CREATE (:A {v: 3})");
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(db.engine().plan_cache_stats().invalidations, 1u);

  // And DELETE does too.
  MustRun(db, "MATCH (a:A {v: 3}) DELETE a");
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(db.engine().plan_cache_stats().invalidations, 2u);
}

TEST(PlanCache, PropertyUpdatesDoNotInvalidate) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE (:A {v: 1})");
  const std::string q = "MATCH (a:A) RETURN a.v AS v";
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  // SET only touches a property value: plans do not depend on it, the
  // cached plan stays valid and still sees the new value at runtime.
  MustRun(db, "MATCH (a:A) SET a.v = 99");
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 99);
  EXPECT_EQ(db.engine().plan_cache_stats().invalidations, 0u);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, 1u);
}

TEST(PlanCache, PropertyDriftPastThresholdInvalidates) {
  // Pure property writes do not bump stats_version, but they move the
  // NDV sketches a cost-sensitive plan baked its selectivities from:
  // past kDataDriftThreshold increments of data_version the entry must
  // re-plan. Below the threshold (the single-SET workload) it must NOT.
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE (:A {v: 1}), (:A {v: 2}), (:A {v: 3})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 3);
  MustRun(db, "MATCH (a:A {v: 1}) SET a.v = 9");  // small drift
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(db.engine().plan_cache_stats().invalidations, 0u);
  EXPECT_GE(db.engine().plan_cache_stats().hits, 1u);

  // 3 nodes x 6 rounds = 18 property writes >= the threshold of 16.
  for (int round = 0; round < 6; ++round) {
    MustRun(db, "MATCH (a:A) SET a.w = " + std::to_string(round));
  }
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_GE(db.engine().plan_cache_stats().invalidations, 1u);
}

TEST(PlanCache, PropertyRewriteFlipsTheCheaperPlan) {
  // The scenario the drift bound exists for: a property rewrite moves an
  // equality predicate's NDV enough that the cheapest anchor CHANGES.
  // 60 :A nodes all share p = 0, so `a.p = 0` is unselective and the
  // 2-node :B scan anchors the chain. After rewriting p to distinct
  // values the same predicate selects ~1 row and the anchor flips to :A.
  Database db = testutil::OpenOn();
  for (int i = 0; i < 60; ++i) {
    MustRun(db, "CREATE (:A {id: " + std::to_string(i) + ", p: 0})");
  }
  MustRun(db, "CREATE (:B {id: 100}), (:B {id: 101})");
  MustRun(db,
          "MATCH (a:A {id: 0}), (b:B {id: 100}) CREATE (a)-[:R]->(b)");
  const std::string q =
      "MATCH (a:A)-[:R]->(b:B) WHERE a.p = 0 RETURN count(*) AS c";

  auto before = db.Explain(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_NE(before->find("NodeByLabelScan(b:B)"), std::string::npos)
      << *before;
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);

  // 60 property writes: far past the drift threshold, and the p sketch
  // now holds ~61 distinct values.
  MustRun(db, "MATCH (a:A) SET a.p = a.id + 1");
  auto after = db.Explain(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->find("NodeByLabelScan(a:A)"), std::string::npos)
      << *after;

  // The cached entry from the pre-rewrite execution must not serve the
  // stale plan: the lookup invalidates and re-plans.
  uint64_t invalidations_before = db.engine().plan_cache_stats().invalidations;
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 0);
  EXPECT_GT(db.engine().plan_cache_stats().invalidations, invalidations_before);
}

TEST(PlanCache, LabelChangesInvalidate) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE (:A {v: 1}), ({v: 2})");
  const std::string q = "MATCH (a:A) RETURN count(*) AS c";
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  MustRun(db, "MATCH (n {v: 2}) SET n:A");
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_GE(db.engine().plan_cache_stats().invalidations, 1u);
}

TEST(PlanCache, FromGraphStatementsBypassTheCache) {
  // Only default-graph plans are cached: a FROM GRAPH statement gets no
  // cache key, never hits, and sees a rebinding of its name at once.
  Database db = testutil::OpenOn();
  auto other = std::make_shared<PropertyGraph>();
  other->CreateNode({"A"}, {});
  db.RegisterGraph("g", other);
  const std::string q = "FROM GRAPH g MATCH (a:A) RETURN count(*) AS c";
  auto stmt = db.Prepare(q);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->normalized_text().empty());
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  auto replacement = std::make_shared<PropertyGraph>();
  replacement->CreateNode({"A"}, {});
  replacement->CreateNode({"A"}, {});
  db.RegisterGraph("g", replacement);
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, 0u);
  EXPECT_EQ(db.engine().plan_cache().size(), 0u);
}

TEST(PlanCache, CachedVarLengthPlanBakesNoRelationshipCount) {
  // A cached plan is validated by the default graph's versions, which a
  // rollback can bring back with different data: the plan must bake in
  // nothing derived from the data, such as a relationship count bounding
  // an unbounded `*`. (:S)->a->b plus a loose c.
  Database db = testutil::OpenOn();
  MustRun(db,
          "CREATE (:S)-[:T]->({name: 'a'})-[:T]->({name: 'b'}), "
          "({name: 'c'})");
  const std::string q = "MATCH (:S)-[:T*]->(x) RETURN count(x) AS c";
  // Plan and cache the query inside a write transaction that deleted a
  // relationship (one relationship left), then roll back.
  auto writer = db.CreateSession();
  ASSERT_TRUE(writer->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(
      writer->Execute("MATCH ({name: 'a'})-[r:T]->() DELETE r").ok());
  auto inside = writer->Execute(q);
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  EXPECT_EQ(inside->table.rows()[0][0].AsInt(), 1);
  ASSERT_TRUE(writer->Rollback().ok());
  // One relationship create brings the statistics back to the cached
  // plan's version, now with three relationships.
  MustRun(db, "MATCH (b {name: 'b'}), (c {name: 'c'}) CREATE (b)-[:T]->(c)");
  uint64_t hits = db.engine().plan_cache_stats().hits;
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits + 1);
}

TEST(PlanCache, DisabledCacheStillAnswers) {
  EngineOptions opts;
  opts.plan_cache_capacity = 0;
  Database db = testutil::OpenOn(nullptr, opts);
  MustRun(db, "CREATE ({v: 1})");
  const std::string q = "MATCH (n) RETURN n.v AS v";
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(MustRun(db, q).table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(db.engine().plan_cache().size(), 0u);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, 0u);
  EXPECT_EQ(db.engine().plan_cache_stats().misses, 0u);
}

TEST(PlanCache, ZeroCapacityDisables) {
  EngineOptions opts;
  opts.plan_cache_capacity = 0;
  Database db = testutil::OpenOn(nullptr, opts);
  MustRun(db, "CREATE ({v: 1})");
  MustRun(db, "MATCH (n) RETURN n.v AS v");
  MustRun(db, "MATCH (n) RETURN n.v AS v");
  EXPECT_EQ(db.engine().plan_cache().size(), 0u);
}

TEST(PlanCache, InterpreterModeBypassesCache) {
  EngineOptions opts;
  opts.mode = ExecutionMode::kInterpreter;
  Database db = testutil::OpenOn(nullptr, opts);
  MustRun(db, "CREATE ({v: 1})");
  MustRun(db, "MATCH (n) RETURN n.v AS v");
  MustRun(db, "MATCH (n) RETURN n.v AS v");
  EXPECT_EQ(db.engine().plan_cache().size(), 0u);
}

TEST(PlanCache, DerivedColumnNamesSurviveCanonicalization) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({v: 41})");
  auto r = MustRun(db, "MATCH (n) RETURN n.v + 1");
  ASSERT_EQ(r.table.fields().size(), 1u);
  EXPECT_EQ(r.table.fields()[0], "(n.v + 1)");
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 42);
}

TEST(PlanCache, OrderByOverProjectedAggregateStillWorks) {
  Database db = testutil::OpenOn();
  MustRun(db,
          "CREATE ({g: 1}), ({g: 1}), ({g: 2}), ({g: 2}), ({g: 2})");
  // ORDER BY count(*) + 1 resolves by expression text against the
  // projected column — canonicalization must not break the match.
  auto r = MustRun(db,
                   "MATCH (n) RETURN n.g AS g, count(*) + 1 "
                   "ORDER BY count(*) + 1 DESC");
  ASSERT_EQ(r.table.NumRows(), 2u);
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(r.table.rows()[1][0].AsInt(), 1);
}

TEST(PlanCache, QuotedStringLiteralsDoNotCollide) {
  // Projection-item literals stay in the normalized text, where
  // FormatValue prints strings unescaped: `'a' + 'b'` and the single
  // literal `a' + 'b` would unparse identically. The cache key's literal
  // digest (length-prefixed) must keep them apart.
  Database db = testutil::OpenOn();
  auto r1 = MustRun(db, "RETURN 'a' + 'b' AS x");
  auto r2 = MustRun(db, "RETURN 'a\\' + \\'b' AS x");
  EXPECT_EQ(r1.table.rows()[0][0].AsString(), "ab");
  EXPECT_EQ(r2.table.rows()[0][0].AsString(), "a' + 'b");
  EXPECT_EQ(db.engine().plan_cache().size(), 2u);
}

TEST(PlanCache, FloatLiteralsBeyondDisplayPrecisionDoNotCollide) {
  // FormatValue prints floats at display precision; the digest uses
  // round-trip precision so near-identical float literals stay distinct.
  Database db = testutil::OpenOn();
  auto r1 = MustRun(db, "RETURN 1.0 AS x");
  auto r2 = MustRun(db, "RETURN 1.0000000000000002 AS x");
  EXPECT_NE(r1.table.rows()[0][0].AsFloat(), r2.table.rows()[0][0].AsFloat());
  EXPECT_EQ(db.engine().plan_cache().size(), 2u);
}

TEST(PlanCache, RollbackKeepsCachedPlansValid) {
  // A rollback restores the committed state the cached plan was planned
  // on, so the plan still hits — and reads the restored graph, not the
  // abandoned head.
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({v: 1})");
  const std::string q = "MATCH (n) RETURN n.v AS v";
  MustRun(db, q);
  EXPECT_EQ(db.engine().plan_cache().size(), 1u);
  auto writer = db.CreateSession();
  ASSERT_TRUE(writer->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(writer->Execute("CREATE ({v: 2})").ok());
  ASSERT_TRUE(writer->Rollback().ok());
  uint64_t hits = db.engine().plan_cache_stats().hits;
  auto r = MustRun(db, q);
  EXPECT_EQ(db.engine().plan_cache_stats().hits, hits + 1);
  EXPECT_EQ(db.engine().plan_cache_stats().invalidations, 0u);
  ASSERT_EQ(r.table.NumRows(), 1u);
  EXPECT_EQ(r.table.rows()[0][0].AsInt(), 1);
}

// ---- Prepare / Execute -----------------------------------------------------

TEST(Prepare, ExecuteWithDifferentParamsMatchesFreshPlanning) {
  EngineOptions cold_opts;
  cold_opts.plan_cache_capacity = 0;
  Database cached = testutil::OpenOn();
  Database fresh = testutil::OpenOn(nullptr, cold_opts);
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
  EXPECT_EQ(cached.engine().plan_cache_stats().misses, 1u);
  EXPECT_EQ(cached.engine().plan_cache_stats().hits, 2u);
}

TEST(Prepare, ExtractedLiteralsActAsDefaults) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({id: 7, v: 70})");
  auto stmt = db.Prepare("MATCH (n {id: 7}) RETURN n.v AS v");
  ASSERT_TRUE(stmt.ok());
  auto r = db.Execute(*stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.NumRows(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 70);
}

TEST(Prepare, UserParamNamedLikeSyntheticIsNotShadowed) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({a: 5, b: 7})");
  // The query uses $_p0 itself; the literal 7 must get a different
  // synthetic name, and the user's $_p0 binding must win for $_p0.
  auto stmt = db.Prepare(
      "MATCH (n) WHERE n.a = $_p0 AND n.b = 7 RETURN count(*) AS c");
  ASSERT_TRUE(stmt.ok());
  auto hit = db.Execute(*stmt, P({{"_p0", Value::Int(5)}}));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->table.rows()[0][0].AsInt(), 1);
  auto miss = db.Execute(*stmt, P({{"_p0", Value::Int(6)}}));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->table.rows()[0][0].AsInt(), 0);
}

TEST(Prepare, UpdatingQueriesRunOnTheInterpreter) {
  Database db = testutil::OpenOn();
  auto stmt = db.Prepare("CREATE (:A {v: $v})");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->updating());
  for (int64_t v = 1; v <= 3; ++v) {
    auto r = db.Execute(*stmt, P({{"v", Value::Int(v)}}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.nodes_created, 1);
  }
  auto check = MustRun(db, "MATCH (a:A) RETURN sum(a.v) AS s");
  EXPECT_EQ(check.table.rows()[0][0].AsInt(), 6);
  // Updating queries never enter the plan cache.
  EXPECT_EQ(db.engine().plan_cache().size(), 1u);  // only the MATCH above
}

TEST(Prepare, EmptyHandleIsAnError) {
  Database db = testutil::OpenOn();
  PreparedQuery empty;
  auto r = db.Execute(empty);
  EXPECT_FALSE(r.ok());
}

TEST(Prepare, RepeatedExecutionOfCachedPlanIsStable) {
  Database db = testutil::OpenOn();
  MustRun(db, "CREATE ({v: 1}), ({v: 2}), ({v: 3})");
  auto stmt = db.Prepare(
      "MATCH (n) WHERE n.v >= $lo RETURN n.v AS v ORDER BY v");
  ASSERT_TRUE(stmt.ok());
  auto first = db.Execute(*stmt, P({{"lo", Value::Int(2)}}));
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = db.Execute(*stmt, P({{"lo", Value::Int(2)}}));
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(first->table.SameBag(again->table));
  }
}

}  // namespace
}  // namespace gqlite
