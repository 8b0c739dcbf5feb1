// Experiment E17 (README.md): the update language of §2 — CREATE / SET /
// MERGE throughput, and MERGE's match-vs-create asymmetry (the same MERGE
// is a read when the pattern exists and a write when it does not).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

void BM_CreateNodes(benchmark::State& state) {
  for (auto _ : state) {
    Database db = bench::MakeEmptyDatabase();
    for (int64_t i = 0; i < state.range(0); ++i) {
      auto r = db.Execute("CREATE (:N {idx: " + std::to_string(i) + "})");
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(db.Snapshot()->NumNodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CreateNodes)->Arg(100)->Arg(1000);

void BM_CreateChainBatch(benchmark::State& state) {
  // One query creating a relationship per driving row (UNWIND + MATCH).
  for (auto _ : state) {
    Database db = bench::MakeEmptyDatabase();
    auto seed = db.Execute("UNWIND range(0, " +
                               std::to_string(state.range(0)) +
                               ") AS i CREATE (:N {idx: i})");
    if (!seed.ok()) {
      state.SkipWithError(seed.status().ToString().c_str());
      return;
    }
    auto wire = db.Execute(
        "MATCH (a:N), (b:N) WHERE b.idx = a.idx + 1 "
        "CREATE (a)-[:NEXT]->(b)");
    if (!wire.ok()) {
      state.SkipWithError(wire.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db.Snapshot()->NumRels());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CreateChainBatch)->Arg(64)->Arg(256);

void BM_SetProperties(benchmark::State& state) {
  Database db = bench::MakeEmptyDatabase();
  auto seed = db.Execute("UNWIND range(0, " +
                             std::to_string(state.range(0)) +
                             ") AS i CREATE (:N {idx: i})");
  if (!seed.ok()) {
    state.SkipWithError(seed.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = db.Execute("MATCH (n:N) SET n.touched = n.idx * 2");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->stats.properties_set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetProperties)->Arg(100)->Arg(1000);

void BM_MergeAllMatch(benchmark::State& state) {
  // Every MERGE matches: pure read path.
  Database db = bench::MakeEmptyDatabase();
  auto seed = db.Execute("UNWIND range(0, 99) AS i CREATE (:K {k: i})");
  if (!seed.ok()) {
    state.SkipWithError(seed.status().ToString().c_str());
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute("MERGE (n:K {k: " + std::to_string(i % 100) +
                            "}) RETURN n");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    ++i;
    benchmark::DoNotOptimize(r->table.NumRows());
  }
}
BENCHMARK(BM_MergeAllMatch);

void BM_MergeAllCreate(benchmark::State& state) {
  // Every MERGE misses: write path (match attempt + create).
  Database db = bench::MakeEmptyDatabase();
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute("MERGE (n:K {k: " + std::to_string(i++) +
                            "}) RETURN n");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->table.NumRows());
  }
}
BENCHMARK(BM_MergeAllCreate);

void BM_DetachDelete(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    GraphPtr g = workload::MakeSocialNetwork(
        {static_cast<size_t>(state.range(0)), 6.0, 5, 7});
    Database db = bench::MakeDatabase(g);
    state.ResumeTiming();
    auto r = db.Execute("MATCH (p:Person) DETACH DELETE p");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->stats.nodes_deleted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetachDelete)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
