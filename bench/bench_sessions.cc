// Mixed read/write throughput under the session API: N reader sessions
// run snapshot-isolated read transactions on their own threads while one
// writer session keeps committing. Reader items/sec should scale with
// the session count — readers never block behind the writer (they pin
// COW snapshots), the writer never blocks behind readers (it owns the
// single writer slot outright).
//
// BM_SnapshotPin isolates the per-transaction cost the MVCC layer adds:
// Begin(kRead) + one query + Commit against a quiescent engine, vs the
// same query auto-committed.
//
// BM_WriteTxnAtGraphSize measures how a write transaction's cost grows
// with the graph: the /200000 row should stay within a few times the
// /20000 row (CI fails the job above 5x).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/sync.h"
#include "src/core/session.h"

namespace gqlite {
namespace {

void SeedPeople(Database& db, int64_t n) {
  auto seed = db.Execute("UNWIND range(0, " + std::to_string(n - 1) +
                             ") AS i CREATE (:Person {id: i, score: i % 9})");
  if (!seed.ok()) {
    std::fprintf(stderr, "seed failed: %s\n", seed.status().ToString().c_str());
    std::exit(1);
  }
  auto wire = db.Execute(
      "MATCH (a:Person), (b:Person) WHERE b.id = a.id + 1 "
      "CREATE (a)-[:KNOWS]->(b)");
  if (!wire.ok()) {
    std::fprintf(stderr, "wire failed: %s\n", wire.status().ToString().c_str());
    std::exit(1);
  }
}

/// range(0) = reader session count. Each reader thread runs read
/// transactions (Begin / 2 statements / Commit) for the timed region
/// while the writer thread commits small write transactions in a loop.
/// Items = completed reader transactions.
void BM_MixedReadWrite(benchmark::State& state) {
  const int kReaders = static_cast<int>(state.range(0));
  Database db = bench::MakeEmptyDatabase();
  SeedPeople(db, 256);

  for (auto _ : state) {
    state.PauseTiming();
    AtomicCounter stop;
    AtomicCounter reader_txns;
    std::thread writer([&db, &stop] {
      auto session = db.CreateSession();
      int64_t i = 0;
      while (stop.Load() == 0) {
        if (!session->Begin(TxnMode::kWrite).ok()) continue;
        std::string q = "MATCH (p:Person) WHERE p.id = " +
                        std::to_string(i++ % 256) +
                        " SET p.score = p.score + 1";
        if (!session->Execute(q).ok()) {
          session->Rollback();
          continue;
        }
        session->Commit();
      }
    });
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    state.ResumeTiming();

    constexpr int kTxnsPerReader = 32;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&db, &reader_txns] {
        auto session = db.CreateSession();
        for (int i = 0; i < kTxnsPerReader; ++i) {
          if (!session->Begin(TxnMode::kRead).ok()) continue;
          auto c = session->Execute("MATCH (p:Person) RETURN count(p) AS c");
          auto s = session->Execute(
              "MATCH (p:Person) WHERE p.score > 4 RETURN count(p) AS c");
          benchmark::DoNotOptimize(c);
          benchmark::DoNotOptimize(s);
          session->Commit();
          reader_txns.FetchAdd();
        }
      });
    }
    for (auto& r : readers) r.join();

    state.PauseTiming();
    stop.Store(1);
    writer.join();
    if (reader_txns.Load() !=
        static_cast<size_t>(kReaders) * kTxnsPerReader) {
      state.SkipWithError("reader transactions failed");
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 32);
}
BENCHMARK(BM_MixedReadWrite)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The MVCC tax on a quiescent engine: explicit read transaction vs
/// auto-commit for the same single statement. Items = statements.
void BM_SnapshotPin(benchmark::State& state) {
  const bool explicit_txn = state.range(0) != 0;
  Database db = bench::MakeEmptyDatabase();
  SeedPeople(db, 256);
  auto session = db.CreateSession();
  for (auto _ : state) {
    if (explicit_txn) {
      if (!session->Begin(TxnMode::kRead).ok()) {
        state.SkipWithError("Begin failed");
        return;
      }
    }
    auto r = session->Execute("MATCH (p:Person) RETURN count(p) AS c");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->table.rows());
    if (explicit_txn) session->Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotPin)->Arg(0)->Arg(1);

/// Writer commit throughput while snapshots are pinned: a reader session
/// holds a transaction open across the whole run, so every commit COWs
/// pages the pinned snapshot shares. Items = write transactions.
void BM_CommitUnderPinnedSnapshot(benchmark::State& state) {
  Database db = bench::MakeEmptyDatabase();
  SeedPeople(db, 256);
  auto pin = db.CreateSession();
  if (!pin->Begin(TxnMode::kRead).ok()) {
    state.SkipWithError("pin failed");
    return;
  }
  auto writer = db.CreateSession();
  int64_t i = 0;
  for (auto _ : state) {
    if (!writer->Begin(TxnMode::kWrite).ok()) {
      state.SkipWithError("writer Begin failed");
      return;
    }
    std::string q = "MATCH (p:Person) WHERE p.id = " +
                    std::to_string(i++ % 256) + " SET p.score = p.score + 1";
    auto r = writer->Execute(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    writer->Commit();
  }
  pin->Commit();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitUnderPinnedSnapshot);

/// Write-transaction cost against graph size: Begin(kWrite) + one
/// property SET on the head + Commit, on range(0) Persons with 8 KNOWS
/// each. Each Begin after a commit snapshots the committed state, so the
/// row tracks what a snapshot costs at that size. The graph is built once
/// per size; every run opens on a copy-on-write clone of it.
/// Items = write transactions.
void BM_WriteTxnAtGraphSize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  static std::map<size_t, std::shared_ptr<const PropertyGraph>> built;
  std::shared_ptr<const PropertyGraph>& base = built[n];
  if (base == nullptr) {
    PropertyGraph g;
    for (size_t i = 0; i < n; ++i) {
      g.CreateNode({"Person"}, {{"id", Value::Int(static_cast<int64_t>(i))}});
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 1; k <= 8; ++k) {
        NodeId known{(i + k * 7919) % n};
        if (!g.CreateRelationship(NodeId{i}, known, "KNOWS").ok()) {
          state.SkipWithError("graph build failed");
          return;
        }
      }
    }
    base = g.Snapshot();
  }
  Database db = bench::MakeDatabase(base->Clone());
  auto session = db.CreateSession();
  size_t i = 0;
  for (auto _ : state) {
    if (!session->Begin(TxnMode::kWrite).ok()) {
      state.SkipWithError("writer Begin failed");
      return;
    }
    session->graph()->SetNodeProperty(NodeId{i % n}, "score",
                                      Value::Int(static_cast<int64_t>(i)));
    ++i;
    if (!session->Commit().ok()) {
      state.SkipWithError("Commit failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteTxnAtGraphSize)->Arg(20000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
