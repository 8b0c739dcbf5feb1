// Experiment E16 (README.md): variable-length path matching ("essentially
// transitive closure", §2) — range sweeps on chains and grids, plus the
// zero-length lower bound and the unbounded `*` on DAGs. The interesting
// shape: work grows with the number of rigid refinements × paths, and the
// relationship-isomorphism rule keeps the unbounded case finite.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

void BM_ChainRangeSweep(benchmark::State& state) {
  // *1..k over a 256-node chain: result rows = sum over start positions.
  GraphPtr g = workload::MakeChain(256);
  Database db = bench::MakeDatabase(g);
  std::string q = "MATCH (a)-[:NEXT*1.." + std::to_string(state.range(0)) +
                  "]->(b) RETURN count(*) AS c";
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, q);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ChainRangeSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ChainUnbounded(benchmark::State& state) {
  // Unbounded `*` on chains of growing length: quadratic result size,
  // bounded by edge isomorphism.
  GraphPtr g = workload::MakeChain(static_cast<size_t>(state.range(0)));
  Database db = bench::MakeDatabase(g);
  int64_t rows = 0;
  for (auto _ : state) {
    Table t =
        bench::MustRun(db, "MATCH (a)-[:NEXT*]->(b) RETURN count(*) AS c");
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ChainUnbounded)->Arg(64)->Arg(128)->Arg(256);

void BM_GridPaths(benchmark::State& state) {
  // Directed grid: path counts between corners grow combinatorially with
  // the range bound.
  GraphPtr g = workload::MakeGrid(6, 6);
  Database db = bench::MakeDatabase(g);
  std::string q = "MATCH (a {row: 0, col: 0})-[*1.." +
                  std::to_string(state.range(0)) +
                  "]->(b {row: 5, col: 5}) RETURN count(*) AS c";
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, q);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["paths"] = static_cast<double>(rows);
}
BENCHMARK(BM_GridPaths)->Arg(10)->Arg(11)->Arg(12);

void BM_ZeroLengthLowerBound(benchmark::State& state) {
  // *0..2: zero-length refinements bind the endpoints together — each
  // node contributes itself plus its neighbourhood.
  GraphPtr g = workload::MakeCycle(static_cast<size_t>(state.range(0)));
  Database db = bench::MakeDatabase(g);
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(
        db, "MATCH (a)-[:NEXT*0..2]->(b) RETURN count(*) AS c");
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ZeroLengthLowerBound)->Arg(64)->Arg(256);

void BM_CitationTransitive(benchmark::State& state) {
  // The paper's CITES* shape on synthetic citation DAGs of growing size.
  workload::CitationConfig cfg;
  cfg.num_researchers = static_cast<size_t>(state.range(0));
  cfg.pubs_per_researcher = 3;
  cfg.avg_cites_per_pub = 1.5;
  GraphPtr g = workload::MakeCitationGraph(cfg);
  Database db = bench::MakeDatabase(g);
  for (auto _ : state) {
    Table t = bench::MustRun(
        db,
        "MATCH (p1:Publication)<-[:CITES*]-(p2:Publication) "
        "RETURN count(*) AS c");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CitationTransitive)->Arg(20)->Arg(40)->Arg(80);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
