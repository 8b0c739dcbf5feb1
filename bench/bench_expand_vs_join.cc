// Experiment E14 (DESIGN.md): the paper's claim about the Expand operator
// (§2): "it utilizes the fact that the data representation … contains
// direct references from each node via its edges to the related nodes.
// This means that Expand never needs to read any unnecessary data, or
// proceed via an indirection such as an index in order to find related
// nodes."
//
// We compare the adjacency-based Expand with the relational baseline — a
// hash join between the driving rows and the full relationship store —
// for (a) selective expansion from a few anchor nodes, where Expand should
// win by a widening factor as the graph grows, and (b) full scans where
// the hash join amortizes its build.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

GraphPtr MakeSocial(int64_t people) {
  workload::SocialConfig cfg;
  cfg.num_people = static_cast<size_t>(people);
  cfg.avg_friends = 8;
  cfg.num_cities = 10;
  return workload::MakeSocialNetwork(cfg);
}

/// Selective: expand the friends-of-friends of ONE person. The adjacency
/// Expand touches only the 2-hop neighbourhood; the hash join builds an
/// index over every FRIEND relationship first.
void BM_SelectiveExpand(benchmark::State& state, bool use_join) {
  GraphPtr g = MakeSocial(state.range(0));
  EngineOptions opts;
  if (use_join) opts.expand_strategy = ExpandStrategy::kHashJoin;
  Database db = bench::MakeDatabase(g, opts);
  const char* q =
      "MATCH (p:Person {name: 'P0'})-[:FRIEND]-(f)-[:FRIEND]-(ff) "
      "RETURN count(*) AS c";
  for (auto _ : state) {
    Table t = bench::MustRun(db, q);
    benchmark::DoNotOptimize(t);
  }
  state.SetLabel(use_join ? "hash-join baseline" : "adjacency Expand");
}

void BM_ExpandAdjacency(benchmark::State& state) {
  BM_SelectiveExpand(state, false);
}
void BM_ExpandHashJoin(benchmark::State& state) {
  BM_SelectiveExpand(state, true);
}

BENCHMARK(BM_ExpandAdjacency)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_ExpandHashJoin)->Arg(1000)->Arg(4000)->Arg(16000);

/// Full scan: every FRIEND edge is needed; the join's build cost is
/// amortized over all probes, so the gap narrows (crossover shape).
void BM_FullScanExpand(benchmark::State& state, bool use_join) {
  GraphPtr g = MakeSocial(state.range(0));
  EngineOptions opts;
  if (use_join) opts.expand_strategy = ExpandStrategy::kHashJoin;
  Database db = bench::MakeDatabase(g, opts);
  const char* q = "MATCH (a:Person)-[:FRIEND]->(b) RETURN count(*) AS c";
  for (auto _ : state) {
    Table t = bench::MustRun(db, q);
    benchmark::DoNotOptimize(t);
  }
  state.SetLabel(use_join ? "hash-join baseline" : "adjacency Expand");
}

void BM_FullExpandAdjacency(benchmark::State& state) {
  BM_FullScanExpand(state, false);
}
void BM_FullExpandHashJoin(benchmark::State& state) {
  BM_FullScanExpand(state, true);
}

BENCHMARK(BM_FullExpandAdjacency)->Arg(1000)->Arg(4000);
BENCHMARK(BM_FullExpandHashJoin)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
