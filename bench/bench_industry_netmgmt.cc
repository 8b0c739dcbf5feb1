// Experiment E7 (README.md): the §3 network-management query — "the
// component that is depended upon — both directly and indirectly — by the
// largest number of entities" — on layered data-center graphs of growing
// depth and width. The variable-length DEPENDS_ON* dominates; cost grows
// with the number of dependency paths, not just entities.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

const char* kQuery =
    "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) "
    "RETURN svc.name AS svc, count(DISTINCT dep) AS dependents "
    "ORDER BY dependents DESC LIMIT 1";

void BM_NetMgmtWidth(benchmark::State& state) {
  workload::DependencyConfig cfg;
  cfg.layers = 3;
  cfg.per_layer = static_cast<size_t>(state.range(0));
  cfg.fanout = 2;
  GraphPtr g = workload::MakeDependencyNetwork(cfg);
  Database db = bench::MakeDatabase(g);
  int64_t dependents = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, kQuery);
    dependents = t.rows()[0][1].AsInt();
    benchmark::DoNotOptimize(t);
  }
  // The core service is depended on by every service in higher tiers.
  state.counters["dependents"] = static_cast<double>(dependents);
}
BENCHMARK(BM_NetMgmtWidth)->Arg(8)->Arg(16)->Arg(32);

void BM_NetMgmtDepth(benchmark::State& state) {
  workload::DependencyConfig cfg;
  cfg.layers = static_cast<size_t>(state.range(0));
  cfg.per_layer = 8;
  cfg.fanout = 2;
  GraphPtr g = workload::MakeDependencyNetwork(cfg);
  Database db = bench::MakeDatabase(g);
  for (auto _ : state) {
    Table t = bench::MustRun(db, kQuery);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_NetMgmtDepth)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_BlastRadius(benchmark::State& state) {
  // The companion impact query from examples/network_ops.
  workload::DependencyConfig cfg;
  cfg.layers = 4;
  cfg.per_layer = static_cast<size_t>(state.range(0));
  cfg.fanout = 2;
  GraphPtr g = workload::MakeDependencyNetwork(cfg);
  Database db = bench::MakeDatabase(g);
  for (auto _ : state) {
    Table t = bench::MustRun(
        db,
        "MATCH (core:Service {name: 'svc-0-0'})<-[:DEPENDS_ON*]-(dep) "
        "RETURN count(DISTINCT dep) AS affected");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BlastRadius)->Arg(8)->Arg(16);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
