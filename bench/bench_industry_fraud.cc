// Experiment E8 (README.md): the §3 fraud-detection query — shared
// personal information across account holders — swept over dataset size
// and ring density. Exercises label-disjunction predicates (pInfo:SSN OR
// …), collect(), count(*) grouping and the WITH … WHERE filter.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

const char* kFraudQuery =
    "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo) "
    "WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address "
    "WITH pInfo, collect(accHolder.uniqueId) AS accountHolders, "
    "count(*) AS fraudRingCount "
    "WHERE fraudRingCount > 1 "
    "RETURN accountHolders, labels(pInfo) AS personalInformation, "
    "fraudRingCount";

void BM_FraudBySize(benchmark::State& state) {
  workload::FraudConfig cfg;
  cfg.num_holders = static_cast<size_t>(state.range(0));
  cfg.num_rings = cfg.num_holders / 100 + 1;
  cfg.ring_size = 4;
  GraphPtr g = workload::MakeFraudGraph(cfg);
  Database db = bench::MakeDatabase(g);
  int64_t rings = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, kFraudQuery);
    rings = static_cast<int64_t>(t.NumRows());
    benchmark::DoNotOptimize(t);
  }
  state.counters["rings_found"] = static_cast<double>(rings);
}
BENCHMARK(BM_FraudBySize)->Arg(500)->Arg(2000)->Arg(8000);

void BM_FraudByRingDensity(benchmark::State& state) {
  workload::FraudConfig cfg;
  cfg.num_holders = 2000;
  cfg.num_rings = static_cast<size_t>(state.range(0));
  cfg.ring_size = 5;
  GraphPtr g = workload::MakeFraudGraph(cfg);
  Database db = bench::MakeDatabase(g);
  int64_t rings = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, kFraudQuery);
    rings = static_cast<int64_t>(t.NumRows());
    benchmark::DoNotOptimize(t);
  }
  state.counters["rings_found"] = static_cast<double>(rings);
}
BENCHMARK(BM_FraudByRingDensity)->Arg(5)->Arg(20)->Arg(80);

void BM_SharedPairJoin(benchmark::State& state) {
  // The second-degree exposure query: a two-hop join through shared PII.
  workload::FraudConfig cfg;
  cfg.num_holders = static_cast<size_t>(state.range(0));
  cfg.num_rings = cfg.num_holders / 50 + 1;
  cfg.ring_size = 4;
  GraphPtr g = workload::MakeFraudGraph(cfg);
  Database db = bench::MakeDatabase(g);
  for (auto _ : state) {
    Table t = bench::MustRun(
        db,
        "MATCH (a:AccountHolder)-[:HAS]->(p)<-[:HAS]-(b:AccountHolder) "
        "WHERE a.uniqueId < b.uniqueId RETURN count(*) AS pairs");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SharedPairJoin)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
