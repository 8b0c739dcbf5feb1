// Concurrent differential harness (ROADMAP item 1): N reader threads,
// each pinning snapshot-isolated read transactions, run a fixed query
// mix BOTH through their session and through a serial interpreter-mode
// oracle engine bound to the very same snapshot — the two must agree
// bag-wise on every round while a writer thread keeps committing write
// transactions against the head. Also asserts the isolation invariant
// directly: every statement inside one read transaction observes the
// same counts, no matter what the writer commits meanwhile.
//
// The mix also reads a named graph registered from the head's own
// object: it is a frozen value, so its count never moves while the
// writer commits, and reading it never touches the writer's pages.
//
// The sanitizer CI legs reshape rather than skip this: under
// GQLITE_THREADS=4 (the TSan leg) every session engine execution also
// fans out over the shared worker pool, so the harness doubles as a
// lock-order exercise for pool + plan cache + catalog + txn mutexes.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

constexpr int kReaderThreads = 4;
constexpr int kReaderRounds = 4;
constexpr int kWriterCommits = 12;

constexpr int64_t kSeededNodes = 12;

// The read mix: aggregation, property projection, expansion, filter, and
// a count over the named graph `start` (the seeded state, frozen).
constexpr std::string_view kStartCount =
    "FROM GRAPH start MATCH (n) RETURN count(n) AS c";
const char* const kReadQueries[] = {
    "MATCH (n) RETURN count(n) AS c",
    "MATCH (p:Person) RETURN p.id AS id, p.score AS s",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.id AS a, b.id AS b",
    "MATCH (p:Person) WHERE p.score > 4 RETURN count(p) AS hi",
    kStartCount.data(),
};

void SeedGraph(Database* db) {
  for (int i = 0; i < kSeededNodes; ++i) {
    std::string q = "CREATE (:Person {id: " + std::to_string(i) +
                    ", score: " + std::to_string(i % 9) + "})";
    ASSERT_TRUE(db->Execute(q).ok());
  }
  auto r = db->Execute(
      "MATCH (a:Person), (b:Person) WHERE b.id = a.id + 1 "
      "CREATE (a)-[:KNOWS]->(b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(Concurrent, SnapshotReadersMatchSerialOracleUnderWriter) {
  // The test holds the head's object `g`. Before any thread starts, take
  // the oracles' copy of the seeded state, then register `g` itself as
  // `start`: the catalog must store a frozen value, never `g`, which the
  // writer thread goes on to mutate.
  auto g = std::make_shared<PropertyGraph>();
  Database db = testutil::OpenOn(g);
  SeedGraph(&db);
  GraphPtr frozen = g->Snapshot();
  db.RegisterGraph("start", g);

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&db, &frozen, t] {
      // One serial oracle per round: interpreter mode, opened on the
      // pinned snapshot. Frozen snapshots are safe to share as a
      // starting graph (reads never mutate them, and the database
      // serves them without a copy).
      EngineOptions oracle_opts;
      oracle_opts.mode = ExecutionMode::kInterpreter;

      auto session = db.CreateSession();
      for (int round = 0; round < kReaderRounds; ++round) {
        ASSERT_TRUE(session->Begin(TxnMode::kRead).ok());
        GraphPtr snap = session->graph();
        ASSERT_NE(snap, nullptr);
        ASSERT_TRUE(snap->frozen());
        Database oracle = testutil::OpenOn(snap, oracle_opts);
        oracle.RegisterGraph("start", frozen);

        int64_t pinned_nodes = -1;
        for (const char* q : kReadQueries) {
          auto got = session->Execute(q);
          auto want = oracle.Execute(q);
          ASSERT_TRUE(got.ok()) << "reader " << t << ": " << q << ": "
                                << got.status().ToString();
          ASSERT_TRUE(want.ok()) << "oracle " << t << ": " << q << ": "
                                 << want.status().ToString();
          EXPECT_TRUE(want->table.SameBag(got->table))
              << "reader " << t << " round " << round << " diverges on \""
              << q << "\"\noracle:\n" << want->table.ToString()
              << "session:\n" << got->table.ToString();
          if (q == kStartCount) {
            EXPECT_EQ(got->table.rows()[0][0].AsInt(), kSeededNodes)
                << "reader " << t << " round " << round
                << ": the named graph moved with the writer";
          }
        }
        // Isolation invariant: the pinned count never moves within the
        // transaction, however many commits land meanwhile.
        for (int probe = 0; probe < 3; ++probe) {
          auto c = session->Execute(kReadQueries[0]);
          ASSERT_TRUE(c.ok());
          int64_t n = c->table.rows()[0][0].AsInt();
          if (pinned_nodes < 0) pinned_nodes = n;
          EXPECT_EQ(n, pinned_nodes)
              << "reader " << t << " round " << round
              << ": count drifted inside a read transaction";
        }
        ASSERT_TRUE(session->Commit().ok());
      }
    });
  }

  // The writer keeps churning the head through explicit write
  // transactions: inserts, property updates, detach-deletes (the COW
  // paths for slot pages, label index postings, and adjacency).
  std::thread writer([&db] {
    auto session = db.CreateSession();
    for (int i = 0; i < kWriterCommits; ++i) {
      // The only writer in this test: the slot is always free.
      ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
      std::string create = "CREATE (:Person {id: " + std::to_string(100 + i) +
                           ", score: " + std::to_string(i % 9) + "})";
      ASSERT_TRUE(session->Execute(create).ok());
      ASSERT_TRUE(
          session->Execute("MATCH (p:Person) WHERE p.id < 12 SET p.score = "
                           "p.score + 1")
              .ok());
      if (i % 3 == 2) {
        std::string del = "MATCH (p:Person {id: " +
                          std::to_string(100 + i - 2) + "}) DETACH DELETE p";
        ASSERT_TRUE(session->Execute(del).ok());
      }
      if (i % 4 == 3) {
        ASSERT_TRUE(session->Rollback().ok());
      } else {
        ASSERT_TRUE(session->Commit().ok());
      }
    }
  });

  for (auto& r : readers) r.join();
  writer.join();

  // Post-join sanity: the head reflects exactly the committed writer
  // rounds (rolled-back rounds i % 4 == 3 left no trace).
  int64_t created = 0, deleted = 0;
  for (int i = 0; i < kWriterCommits; ++i) {
    if (i % 4 == 3) continue;
    ++created;
    if (i % 3 == 2 && (i - 2) % 4 != 3) ++deleted;
  }
  auto fin = db.Execute("MATCH (n) RETURN count(n) AS c");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin->table.rows()[0][0].AsInt(),
            kSeededNodes + created - deleted);
}

TEST(Concurrent, AutoCommitWritersSerializeByWaiting) {
  // Without explicit transactions, concurrent updating statements WAIT
  // for the writer slot instead of surfacing conflicts: all effects
  // must land, exactly once each.
  Database db = testutil::OpenOn();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&db, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string q = "CREATE (:W {owner: " + std::to_string(t) +
                        ", seq: " + std::to_string(i) + "})";
        auto r = db.Execute(q);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& w : writers) w.join();
  auto fin = db.Execute("MATCH (w:W) RETURN count(w) AS c");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin->table.rows()[0][0].AsInt(), kThreads * kPerThread);
}

}  // namespace
}  // namespace gqlite
