// Experiment E15 (DESIGN.md): execution-strategy ablation. The paper
// stresses that the clause order "is understood purely declaratively —
// implementations are free to re-order the execution of clauses if this
// does not change the semantics" (§2) and describes Neo4j's cost-based
// planning (IDP + cost model). We compare:
//   * the reference interpreter (naive full enumeration, the formal
//     semantics executed literally);
//   * Volcano with naive left-to-right pattern order (the forced
//     adjacency + force-right corner);
//   * Volcano with the cost-based chain planner (cheapest anchor,
//     cheaper frontier first);
//   * the cost planner with each per-hop expand operator forced.
// The query anchors on a highly selective label at the far end of the
// pattern, so anchor choice changes the intermediate cardinality by
// orders of magnitude.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

GraphPtr MakeLopsided(size_t people) {
  // Many Person nodes, ONE Company; everyone works at most one hop from a
  // small core: Person -> Dept -> Company.
  auto g = std::make_shared<PropertyGraph>();
  NodeId company = g->CreateNode({"Company"}, {{"name", Value::String("ACME")}});
  std::vector<NodeId> depts;
  for (int d = 0; d < 10; ++d) {
    NodeId dept = g->CreateNode({"Dept"}, {{"idx", Value::Int(d)}});
    g->CreateRelationship(dept, company, "PART_OF").value();
    depts.push_back(dept);
  }
  for (size_t i = 0; i < people; ++i) {
    NodeId p = g->CreateNode({"Person"}, {{"idx", Value::Int((int64_t)i)}});
    g->CreateRelationship(p, depts[i % depts.size()], "WORKS_IN").value();
  }
  return g;
}

const char* kQuery =
    "MATCH (p:Person)-[:WORKS_IN]->(d:Dept)-[:PART_OF]->(c:Company) "
    "WHERE d.idx = 3 RETURN count(p) AS c";

void RunMode(benchmark::State& state, ExecutionMode mode,
             ExpandStrategy strategy = ExpandStrategy::kCost,
             DirectionPolicy direction = DirectionPolicy::kCost) {
  GraphPtr g = MakeLopsided(static_cast<size_t>(state.range(0)));
  EngineOptions opts;
  opts.mode = mode;
  opts.expand_strategy = strategy;
  opts.direction_policy = direction;
  // This benchmark measures the planner itself: plan reuse would collapse
  // all planner settings onto the warm path (see bench_plancache for
  // that).
  opts.plan_cache_capacity = 0;
  Database db = bench::MakeDatabase(g, opts);
  for (auto _ : state) {
    Table t = bench::MustRun(db, kQuery);
    benchmark::DoNotOptimize(t);
  }
}

void BM_Interpreter(benchmark::State& state) {
  RunMode(state, ExecutionMode::kInterpreter);
}
void BM_VolcanoLeftToRight(benchmark::State& state) {
  RunMode(state, ExecutionMode::kVolcano, ExpandStrategy::kAdjacency,
          DirectionPolicy::kForceRight);
}
void BM_VolcanoGreedy(benchmark::State& state) {
  RunMode(state, ExecutionMode::kVolcano);
}
// Forced-plan rows: each side of the per-hop expand-operator choice,
// under the cost planner's anchor and direction. Their spread over
// BM_VolcanoGreedy (which may pick either per hop) is the price of
// forcing the wrong operator — and the differential harness runs
// exactly these configurations.
void BM_VolcanoForcedAdjacency(benchmark::State& state) {
  RunMode(state, ExecutionMode::kVolcano, ExpandStrategy::kAdjacency);
}
void BM_VolcanoForcedHashJoin(benchmark::State& state) {
  RunMode(state, ExecutionMode::kVolcano, ExpandStrategy::kHashJoin);
}

BENCHMARK(BM_Interpreter)->Arg(500)->Arg(2000);
BENCHMARK(BM_VolcanoLeftToRight)->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK(BM_VolcanoGreedy)->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK(BM_VolcanoForcedAdjacency)->Arg(2000)->Arg(8000);
BENCHMARK(BM_VolcanoForcedHashJoin)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
