// Experiments E12–E13 (README.md): configurable pattern-matching
// morphisms (§8 future work; §4.2 complexity discussion). Cypher 9's
// relationship isomorphism keeps variable-length result sets finite; the
// homomorphism alternative explodes (we cap it), and node isomorphism
// prunes harder. The benchmark reports match counts alongside timings so
// the semantic difference is visible, and verifies the §4.2 self-loop
// counts.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

void RunMorphism(benchmark::State& state, Morphism m, const char* query,
                 GraphPtr g, int64_t cap = 6) {
  EngineOptions opts;
  opts.morphism = m;
  opts.max_var_length = cap;
  Database db = bench::MakeDatabase(g, opts);
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, query);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["matches"] = static_cast<double>(rows);
}

const char* kCliqueQuery = "MATCH (a)-[*1..3]->(b) RETURN count(*) AS c";

void BM_CliqueEdgeIso(benchmark::State& state) {
  RunMorphism(state, Morphism::kEdgeIsomorphism, kCliqueQuery,
              workload::MakeClique(static_cast<size_t>(state.range(0))));
}
void BM_CliqueNodeIso(benchmark::State& state) {
  RunMorphism(state, Morphism::kNodeIsomorphism, kCliqueQuery,
              workload::MakeClique(static_cast<size_t>(state.range(0))));
}
void BM_CliqueHomomorphism(benchmark::State& state) {
  RunMorphism(state, Morphism::kHomomorphism, kCliqueQuery,
              workload::MakeClique(static_cast<size_t>(state.range(0))),
              /*cap=*/3);
}

BENCHMARK(BM_CliqueEdgeIso)->Arg(4)->Arg(5)->Arg(6);
BENCHMARK(BM_CliqueNodeIso)->Arg(4)->Arg(5)->Arg(6);
BENCHMARK(BM_CliqueHomomorphism)->Arg(4)->Arg(5)->Arg(6);

const char* kCycleQuery = "MATCH (x)-[*1..8]->(x) RETURN count(*) AS c";

void BM_CycleEdgeIso(benchmark::State& state) {
  RunMorphism(state, Morphism::kEdgeIsomorphism, kCycleQuery,
              workload::MakeCycle(static_cast<size_t>(state.range(0))), 8);
}
void BM_CycleHomomorphism(benchmark::State& state) {
  RunMorphism(state, Morphism::kHomomorphism, kCycleQuery,
              workload::MakeCycle(static_cast<size_t>(state.range(0))), 8);
}

BENCHMARK(BM_CycleEdgeIso)->Arg(4)->Arg(8);
BENCHMARK(BM_CycleHomomorphism)->Arg(4)->Arg(8);

}  // namespace
}  // namespace gqlite

int main(int argc, char** argv) {
  // E12 verification before timing: the §4.2 self-loop example.
  {
    using namespace gqlite;
    workload::SelfLoop loop = workload::MakeSelfLoopGraph();
    Database iso = bench::MakeDatabase(loop.graph);
    Table t = bench::MustRun(iso, "MATCH (x)-[*0..]->(x) RETURN count(*) AS c");
    EngineOptions hom_opts;
    hom_opts.morphism = Morphism::kHomomorphism;
    hom_opts.max_var_length = 10;
    Database hom = bench::MakeDatabase(loop.graph, hom_opts);
    Table t2 =
        bench::MustRun(hom, "MATCH (x)-[*0..]->(x) RETURN count(*) AS c");
    std::printf(
        "E12 self-loop: edge-isomorphism matches = %lld (paper: 2); "
        "homomorphism capped at 10 traversals = %lld (unbounded without "
        "the cap)\n",
        static_cast<long long>(t.rows()[0][0].AsInt()),
        static_cast<long long>(t2.rows()[0][0].AsInt()));
    if (t.rows()[0][0].AsInt() != 2) return 1;
  }
  gqlite::bench::ConsumeGqliteBenchFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
