// Session / transaction semantics: snapshot isolation for readers,
// single-writer conflicts, rollback, starting graphs bound at open, the
// read-only Snapshot() view, and plan-cache invalidation visibility
// across sessions.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/database.h"
#include "src/core/engine.h"
#include "src/core/session.h"

namespace gqlite {
namespace {

int64_t CountNodes(Session* s) {
  auto r = s->Execute("MATCH (n) RETURN count(n) AS c");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->table.rows()[0][0].AsInt();
}

int64_t CountNodes(CypherEngine* engine) {
  auto r = engine->Execute("MATCH (n) RETURN count(n) AS c");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->table.rows()[0][0].AsInt();
}

TEST(Session, AutoCommitMatchesEngine) {
  CypherEngine engine;
  auto session = engine.CreateSession();
  ASSERT_TRUE(session->Execute("CREATE (:A {x: 1})").ok());
  EXPECT_FALSE(session->in_transaction());
  EXPECT_EQ(session->graph(), nullptr);
  EXPECT_EQ(CountNodes(&engine), 1);
}

TEST(Session, ReadTransactionPinsSnapshot) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A), (:A)").ok());

  auto reader = engine.CreateSession();
  ASSERT_TRUE(reader->Begin(TxnMode::kRead).ok());
  EXPECT_EQ(CountNodes(reader.get()), 2);

  // A commit through the engine (auto-commit writer) must not leak into
  // the pinned snapshot.
  ASSERT_TRUE(engine.Execute("CREATE (:A)").ok());
  EXPECT_EQ(CountNodes(reader.get()), 2);
  EXPECT_EQ(CountNodes(&engine), 3);

  // After the transaction closes, the session sees the new state.
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_EQ(CountNodes(reader.get()), 3);
}

TEST(Session, SnapshotSeesNoneOfConcurrentWriterChanges) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A {x: 1})").ok());

  auto reader = engine.CreateSession();
  auto writer = engine.CreateSession();
  ASSERT_TRUE(reader->Begin(TxnMode::kRead).ok());
  ASSERT_TRUE(writer->Begin(TxnMode::kWrite).ok());

  // The writer mutates labels, properties, and topology; the reader's
  // snapshot must observe none of it, even before the writer commits.
  ASSERT_TRUE(writer->Execute("MATCH (a:A) SET a.x = 99").ok());
  ASSERT_TRUE(writer->Execute("MATCH (a:A) CREATE (a)-[:R]->(:B)").ok());

  auto rx = reader->Execute("MATCH (a:A) RETURN a.x AS x");
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->table.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(CountNodes(reader.get()), 1);

  // The writer sees its own uncommitted writes.
  auto wx = writer->Execute("MATCH (a:A) RETURN a.x AS x");
  ASSERT_TRUE(wx.ok());
  EXPECT_EQ(wx->table.rows()[0][0].AsInt(), 99);

  ASSERT_TRUE(writer->Commit().ok());
  // Still pinned: the commit happened after the reader's Begin.
  EXPECT_EQ(CountNodes(reader.get()), 1);
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_EQ(CountNodes(reader.get()), 2);
}

TEST(Session, WriteWriteConflictSurfaces) {
  CypherEngine engine;
  auto s1 = engine.CreateSession();
  auto s2 = engine.CreateSession();
  ASSERT_TRUE(s1->Begin(TxnMode::kWrite).ok());

  Status conflict = s2->Begin(TxnMode::kWrite);
  EXPECT_EQ(conflict.code(), StatusCode::kConflict) << conflict.ToString();
  EXPECT_FALSE(s2->in_transaction());

  // Releasing the slot (either way) lets the other writer in.
  ASSERT_TRUE(s1->Rollback().ok());
  EXPECT_TRUE(s2->Begin(TxnMode::kWrite).ok());
  EXPECT_TRUE(s2->Commit().ok());
}

TEST(Session, UpdatingStatementRejectedInReadTransaction) {
  CypherEngine engine;
  auto session = engine.CreateSession();
  ASSERT_TRUE(session->Begin(TxnMode::kRead).ok());
  auto r = session->Execute("CREATE (:A)");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The failed statement does not poison the transaction.
  EXPECT_EQ(CountNodes(session.get()), 0);
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(CountNodes(&engine), 0);
}

TEST(Session, RollbackRestoresPreBeginState) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A {x: 1})").ok());

  auto session = engine.CreateSession();
  ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(session->Execute("MATCH (a:A) SET a.x = 2").ok());
  ASSERT_TRUE(session->Execute("CREATE (:B), (:C)").ok());
  EXPECT_EQ(CountNodes(session.get()), 3);
  ASSERT_TRUE(session->Rollback().ok());

  EXPECT_EQ(CountNodes(&engine), 1);
  auto r = engine.Execute("MATCH (a:A) RETURN a.x AS x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 1);
}

TEST(Session, DestructorRollsBackOpenWrite) {
  CypherEngine engine;
  {
    auto session = engine.CreateSession();
    ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
    ASSERT_TRUE(session->Execute("CREATE (:A)").ok());
    // Session destroyed with the transaction still open.
  }
  EXPECT_EQ(CountNodes(&engine), 0);
  // The writer slot was released: a fresh write transaction succeeds.
  auto s2 = engine.CreateSession();
  EXPECT_TRUE(s2->Begin(TxnMode::kWrite).ok());
  EXPECT_TRUE(s2->Commit().ok());
}

TEST(Session, DoubleBeginAndStrayCommitFail) {
  CypherEngine engine;
  auto session = engine.CreateSession();
  EXPECT_EQ(session->Commit().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Rollback().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(session->Begin(TxnMode::kRead).ok());
  EXPECT_EQ(session->Begin(TxnMode::kRead).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(session->Commit().ok());
}

TEST(Session, ResultsOutliveSessionAndTransaction) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A {name: 'keep'})").ok());
  Result<QueryResult> r = Status::InvalidArgument("not yet assigned");
  {
    auto session = engine.CreateSession();
    ASSERT_TRUE(session->Begin(TxnMode::kRead).ok());
    r = session->Execute("MATCH (a:A) RETURN a.name AS name");
    ASSERT_TRUE(session->Commit().ok());
  }
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table.rows().size(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].AsString(), "keep");
}

TEST(Session, PlanCacheInvalidationVisibleAcrossSessions) {
  EngineOptions opts;
  opts.plan_cache_capacity = 8;
  CypherEngine engine(opts);
  ASSERT_TRUE(engine.Execute("CREATE (:A)").ok());

  auto s1 = engine.CreateSession();
  auto s2 = engine.CreateSession();
  const std::string q = "MATCH (n:A) RETURN count(n) AS c";

  // Warm the cache through s1, hit it through s2.
  ASSERT_TRUE(s1->Execute(q).ok());
  ASSERT_TRUE(s2->Execute(q).ok());
  PlanCacheStats warm = engine.plan_cache_stats();
  EXPECT_GE(warm.hits, 1u);

  // A structural change through s1 must invalidate the cached plan for
  // s2's next execution — stale per-snapshot statistics are not reused.
  ASSERT_TRUE(s1->Execute("CREATE (:A), (:A)").ok());
  auto r = s2->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 3);
  PlanCacheStats after = engine.plan_cache_stats();
  EXPECT_GT(after.invalidations + after.misses,
            warm.invalidations + warm.misses);
}

TEST(Session, OpenInMemoryStartsFromTheGivenGraph) {
  auto g = std::make_shared<PropertyGraph>();
  g->CreateNode({"A"});
  g->CreateNode({"A"});
  auto opened = Database::OpenInMemory({}, g);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database db = std::move(*opened);
  auto count = [&db] {
    auto r = db.Execute("MATCH (n:A) RETURN count(n) AS c");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->table.rows()[0][0].AsInt();
  };
  EXPECT_EQ(count(), 2);

  // A committed write transaction is visible to later reads.
  auto session = db.CreateSession();
  ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(session->Execute("CREATE (:A)").ok());
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(count(), 3);

  // A rolled-back one restores the pre-Begin state.
  ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(session->Execute("CREATE (:A), (:A)").ok());
  ASSERT_TRUE(session->Execute("MATCH (n:A) SET n.touched = true").ok());
  ASSERT_TRUE(session->Rollback().ok());
  EXPECT_EQ(count(), 3);
  EXPECT_EQ(db.Snapshot()->NumNodes(), 3u);
  auto touched = db.Execute("MATCH (n:A) WHERE n.touched RETURN n");
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(touched->table.NumRows(), 0u);
}

TEST(Session, SnapshotIsFrozenAndStableDuringWrite) {
  auto opened = Database::OpenInMemory();
  ASSERT_TRUE(opened.ok());
  Database db = std::move(*opened);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());

  std::shared_ptr<const PropertyGraph> before = db.Snapshot();
  ASSERT_TRUE(before->frozen());
  EXPECT_EQ(before->NumNodes(), 1u);
  // The runtime guard behind the const view: mutators on a frozen
  // snapshot fail rather than write through.
  auto writable = std::const_pointer_cast<PropertyGraph>(before);
  EXPECT_FALSE(writable->DeleteNode(NodeId{0}).ok());
  EXPECT_EQ(before->NumNodes(), 1u);

  // While a write transaction is open, Snapshot() keeps serving the
  // pre-Begin state.
  auto writer = db.CreateSession();
  ASSERT_TRUE(writer->Begin(TxnMode::kWrite).ok());
  ASSERT_TRUE(writer->Execute("CREATE (:B), (:B)").ok());
  EXPECT_EQ(db.Snapshot()->NumNodes(), 1u);
  EXPECT_EQ(db.Snapshot(), before);
  ASSERT_TRUE(writer->Commit().ok());

  // The commit publishes a new snapshot; the old one never moves.
  EXPECT_EQ(db.Snapshot()->NumNodes(), 3u);
  EXPECT_EQ(before->NumNodes(), 1u);
}

TEST(Session, FrozenStartingGraphIsServedWithoutCopy) {
  // The concurrent differential oracle binds a database to a snapshot
  // of another: reads must run on that very object (copying it would
  // mutate a graph other threads share), and writes must be refused.
  auto live = std::make_shared<PropertyGraph>();
  live->CreateNode({"A"});
  GraphPtr frozen = live->Snapshot();
  auto opened = Database::OpenInMemory({}, frozen);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database db = std::move(*opened);

  EXPECT_EQ(db.Snapshot().get(), frozen.get());
  auto reader = db.CreateSession();
  ASSERT_TRUE(reader->Begin(TxnMode::kRead).ok());
  EXPECT_EQ(reader->graph(), frozen);
  EXPECT_EQ(CountNodes(reader.get()), 1);
  ASSERT_TRUE(reader->Commit().ok());

  auto write = db.Execute("CREATE (:B)");
  EXPECT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kInvalidArgument);
  auto writer = db.CreateSession();
  EXPECT_FALSE(writer->Begin(TxnMode::kWrite).ok());
  EXPECT_EQ(db.Snapshot().get(), frozen.get());
  EXPECT_EQ(frozen->NumNodes(), 1u);
}

TEST(Session, RandSubstreamsAreIndependentAndReproducible) {
  // Each session draws rand() from its own seeded substream (ISSUE 8
  // satellite, PR 7 follow-up): statements in one session never perturb
  // another session's sequence — or the engine-level stream — and a
  // session's sequence is reproducible from (engine seed, creation
  // order).
  auto draw = [](Session* s) {
    auto r = s->Execute("RETURN rand() AS r");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->table.rows()[0][0].AsFloat();
  };
  EngineOptions opts;
  opts.rand_seed = 42;
  CypherEngine a(opts);
  auto a1 = a.CreateSession();
  auto a2 = a.CreateSession();
  double a1_first = draw(a1.get());
  double a2_first = draw(a2.get());
  double a1_second = draw(a1.get());

  // Same engine seed, same creation order, but a2's statements
  // interleaved differently: per-session sequences must not change.
  CypherEngine b(opts);
  auto b1 = b.CreateSession();
  auto b2 = b.CreateSession();
  EXPECT_DOUBLE_EQ(draw(b2.get()), a2_first);
  EXPECT_DOUBLE_EQ(draw(b2.get()), draw(a2.get()));
  EXPECT_DOUBLE_EQ(draw(b1.get()), a1_first);
  EXPECT_DOUBLE_EQ(draw(b1.get()), a1_second);

  // Distinct substreams: the two sessions (and the engine-level stream)
  // do not replay one another.
  EXPECT_NE(a1_first, a2_first);
  CypherEngine c(opts);
  auto engine_first = c.Execute("RETURN rand() AS r");
  ASSERT_TRUE(engine_first.ok());
  EXPECT_NE(engine_first->table.rows()[0][0].AsFloat(), a1_first);

  // Session statements leave the engine-level stream untouched.
  CypherEngine d(opts);
  auto ds = d.CreateSession();
  (void)draw(ds.get());
  (void)draw(ds.get());
  auto after = d.Execute("RETURN rand() AS r");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->table.rows()[0][0].AsFloat(),
                   engine_first->table.rows()[0][0].AsFloat());

  // The substream also feeds statements inside explicit transactions.
  CypherEngine e(opts);
  auto es = e.CreateSession();
  ASSERT_TRUE(es->Begin(TxnMode::kRead).ok());
  EXPECT_DOUBLE_EQ(draw(es.get()), a1_first);
  ASSERT_TRUE(es->Commit().ok());
}

TEST(Session, ReadTransactionPinsCatalogBindings) {
  // The snapshot-isolated view extends to FROM GRAPH resolution: the
  // name/URL bindings are captured at Begin, so a concurrent
  // RegisterGraph cannot rebind a name mid-transaction (statement 1 and
  // statement 2 of the same read transaction must see the same graph).
  CypherEngine engine;
  auto g1 = std::make_shared<PropertyGraph>();
  g1->CreateNode({"V"});
  engine.RegisterGraph("g", g1);

  auto reader = engine.CreateSession();
  ASSERT_TRUE(reader->Begin(TxnMode::kRead).ok());
  auto count = [&]() {
    auto r = reader->Execute("FROM GRAPH g MATCH (n) RETURN count(n) AS c");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->table.rows()[0][0].AsInt();
  };
  EXPECT_EQ(count(), 1);

  // Concurrent rebinding of the SAME name: invisible until Commit.
  auto g2 = std::make_shared<PropertyGraph>();
  g2->CreateNode({"V"});
  g2->CreateNode({"V"});
  engine.RegisterGraph("g", g2);
  EXPECT_EQ(count(), 1);

  // A name REGISTERED AFTER Begin is still reachable — pinning freezes
  // existing bindings, it does not hide new ones.
  auto g3 = std::make_shared<PropertyGraph>();
  g3->CreateNode({"W"});
  g3->CreateNode({"W"});
  g3->CreateNode({"W"});
  engine.RegisterGraph("late", g3);
  auto late = reader->Execute(
      "FROM GRAPH late MATCH (n) RETURN count(n) AS c");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->table.rows()[0][0].AsInt(), 3);

  ASSERT_TRUE(reader->Commit().ok());

  // Outside the transaction the rebinding is visible immediately.
  auto after = reader->Execute("FROM GRAPH g MATCH (n) RETURN count(n) AS c");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->table.rows()[0][0].AsInt(), 2);
}

}  // namespace
}  // namespace gqlite
