// Morsel-driven parallel execution at 1/2/4 workers on the fan-out
// social graph: scan+filter, two-hop expand, global aggregation, and
// the parallel pipeline breakers (ORDER BY merge sort, many-group
// aggregation merge, partitioned DISTINCT) — the plan shapes the
// parallel runtime targets. The thread count is the benchmark argument
// (BM_Parallel*/T), so scaling is read straight off the report; on a
// multi-core machine the 4-worker rows should run >= 1.5x faster than
// the 1-worker rows for the scan+filter, aggregation and breaker cases.
//
// CI gating note: only the /1 (single-worker) rows are machine-portable
// — multi-worker speedups depend on the runner's core count, so the CI
// gate excludes /2 and /4 by name (see .github/workflows/ci.yml); the
// committed baseline still records them for local comparison.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

/// Larger than bench_batch's graph: parallel speedup needs enough work
/// per morsel to amortize the per-range pipeline re-open.
GraphPtr ParallelGraph() {
  static GraphPtr g = [] {
    workload::SocialConfig cfg;
    cfg.num_people = 2048;
    cfg.avg_friends = 12;
    cfg.num_cities = 16;
    return workload::MakeSocialNetwork(cfg);
  }();
  return g;
}

void RunQuery(benchmark::State& state, const char* query) {
  EngineOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(0));
  Database db = bench::MakeDatabase(ParallelGraph(), opts);
  int64_t result = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, query);
    // Integer first cell (the count queries) is the most stable check
    // value; for string-valued breakers fall back to the row count.
    const Value& cell = t.rows()[0][0];
    result = cell.is_int() ? cell.AsInt()
                           : static_cast<int64_t>(t.NumRows());
    benchmark::DoNotOptimize(t);
  }
  state.counters["result"] = static_cast<double>(result);
  state.counters["workers"] =
      static_cast<double>(db.engine().options().num_threads);
  if (db.engine().parallel_stats().queries == 0 &&
      db.engine().options().num_threads > 1) {
    state.SkipWithError("query did not take the parallel runtime");
  }
}

constexpr const char* kScanFilter =
    "MATCH (p:Person) WHERE p.name >= 'P1' AND p.name < 'P3' "
    "RETURN count(*) AS c";

void BM_ParallelScanFilter(benchmark::State& s) { RunQuery(s, kScanFilter); }
BENCHMARK(BM_ParallelScanFilter)->Arg(1)->Arg(2)->Arg(4);

constexpr const char* kTwoHop =
    "MATCH (a:Person)-[:FRIEND]->(b)-[:FRIEND]->(c) RETURN count(*) AS c";

void BM_ParallelTwoHop(benchmark::State& s) { RunQuery(s, kTwoHop); }
BENCHMARK(BM_ParallelTwoHop)->Arg(1)->Arg(2)->Arg(4);

constexpr const char* kGlobalAgg =
    "MATCH (a:Person)-[:FRIEND]->(b) "
    "RETURN count(*) AS c, min(a.name) AS mn, max(b.name) AS mx, "
    "count(DISTINCT b.name) AS d";

void BM_ParallelGlobalAgg(benchmark::State& s) { RunQuery(s, kGlobalAgg); }
BENCHMARK(BM_ParallelGlobalAgg)->Arg(1)->Arg(2)->Arg(4);

// ---- Parallel pipeline breakers --------------------------------------------
// These queries end in a breaker, so the merge stage — not the scan — is
// where the serial engine used to spend its single-threaded time. /2 and
// /4 measure the per-worker local sorts plus the serial merge of their
// runs (ORDER BY), the per-range partial aggregates plus their fold in
// range order (many-group aggregation), and the partitioned seen-sets
// (DISTINCT).

// No LIMIT: the full result survives, so this measures the local sorts
// plus the serial pairwise merge of the runs end to end.
constexpr const char* kOrderBy =
    "MATCH (a:Person)-[:FRIEND]->(b) "
    "RETURN a.name AS x, b.name AS y ORDER BY x, y";

void BM_ParallelOrderBy(benchmark::State& s) { RunQuery(s, kOrderBy); }
BENCHMARK(BM_ParallelOrderBy)->Arg(1)->Arg(2)->Arg(4);

// SKIP/LIMIT push top-K into the per-worker local sorts, so the merge
// only ever sees skip+limit rows per run.
constexpr const char* kOrderByTopK =
    "MATCH (a:Person)-[:FRIEND]->(b) "
    "RETURN b.name AS y ORDER BY y DESC SKIP 10 LIMIT 25";

void BM_ParallelOrderByTopK(benchmark::State& s) { RunQuery(s, kOrderByTopK); }
BENCHMARK(BM_ParallelOrderByTopK)->Arg(1)->Arg(2)->Arg(4);

// ~2048 distinct group keys: the fold of the per-range partials
// dominates, and the row count doubles as the check value (one row per
// group).
constexpr const char* kManyGroupAgg =
    "MATCH (a:Person)-[:FRIEND]->(b) "
    "RETURN a.name AS g, count(*) AS c, min(b.name) AS mn";

void BM_ParallelManyGroupAgg(benchmark::State& s) {
  RunQuery(s, kManyGroupAgg);
}
BENCHMARK(BM_ParallelManyGroupAgg)->Arg(1)->Arg(2)->Arg(4);

// DISTINCT name pairs at an intermediate WITH: the partitioned
// seen-sets dedupe ~all edges, then the count folds the survivors.
constexpr const char* kDistinct =
    "MATCH (a:Person)-[:FRIEND]->(b) "
    "WITH DISTINCT a.name AS x, b.name AS y RETURN count(*) AS c";

void BM_ParallelDistinct(benchmark::State& s) { RunQuery(s, kDistinct); }
BENCHMARK(BM_ParallelDistinct)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
