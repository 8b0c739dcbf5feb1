// Batched vs tuple-at-a-time execution on fan-out-heavy graphs: the same
// query runs at the default morsel size (1024) and at batch size 1 (the
// degenerate per-tuple mode), so the gap IS the dispatch/bookkeeping
// overhead the vectorized runtime amortizes. This suite is part of the CI
// regression gate (bench/tools/compare.py against bench/baselines/): a
// regression in either mode, or a collapse of the batched advantage,
// shows up as a >15% normalized slowdown.

//
// BM_CountScan / BM_IdFilterScan measure the executor's per-row cost on a
// label scan: a bare count, and the same scan under a `{id: $id}` filter
// (prepared statements, 1 worker, N Persons with 8 KNOWS each). Both
// report ns_per_row; the gap between them is what evaluating the filter
// costs per row. The scan filters in place, so a selective filter builds
// no row per rejected candidate while the count keeps every row: CI
// fails when the /2000 filter row costs more than the /2000 count row
// (both rows run in one process, so host speed cancels out).
// BM_RangeFilterScan is the analytic workload's filter_sort read: two
// range conjuncts on `age` that about 13% of the Persons pass, then a
// top-20 sort.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

/// Shared fan-out-heavy graph: 256 people averaging 8 FRIEND edges each
/// (so a two-hop pattern explodes to ~64 rows per source), plus cities.
GraphPtr FanoutGraph() {
  static GraphPtr g = [] {
    workload::SocialConfig cfg;
    cfg.num_people = 256;
    cfg.avg_friends = 8;
    cfg.num_cities = 8;
    return workload::MakeSocialNetwork(cfg);
  }();
  return g;
}

void RunQuery(benchmark::State& state, const char* query,
              size_t batch_size) {
  EngineOptions opts;
  opts.batch_size = batch_size;
  Database db = bench::MakeDatabase(FanoutGraph(), opts);
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, query);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["result"] = static_cast<double>(rows);
  // Effective size: --no-batch / GQLITE_BATCH_SIZE override the request.
  size_t effective = db.engine().options().batch_size;
  state.SetLabel(effective == 1
                     ? "tuple-at-a-time"
                     : "morsel " + std::to_string(effective));
}

constexpr const char* kTwoHop =
    "MATCH (a:Person)-[:FRIEND]->(b)-[:FRIEND]->(c) RETURN count(*) AS c";

void BM_TwoHopBatched(benchmark::State& s) { RunQuery(s, kTwoHop, 1024); }
void BM_TwoHopPerTuple(benchmark::State& s) { RunQuery(s, kTwoHop, 1); }
BENCHMARK(BM_TwoHopBatched);
BENCHMARK(BM_TwoHopPerTuple);

constexpr const char* kFilterExpand =
    "MATCH (a:Person)-[:FRIEND]-(b) WHERE b.name < 'P2' "
    "RETURN count(*) AS c";

void BM_FilterExpandBatched(benchmark::State& s) {
  RunQuery(s, kFilterExpand, 1024);
}
void BM_FilterExpandPerTuple(benchmark::State& s) {
  RunQuery(s, kFilterExpand, 1);
}
BENCHMARK(BM_FilterExpandBatched);
BENCHMARK(BM_FilterExpandPerTuple);

constexpr const char* kVarLength =
    "MATCH (a:Person)-[:FRIEND*1..2]-(b) RETURN count(*) AS c";

void BM_VarLengthBatched(benchmark::State& s) { RunQuery(s, kVarLength, 1024); }
void BM_VarLengthPerTuple(benchmark::State& s) { RunQuery(s, kVarLength, 1); }
BENCHMARK(BM_VarLengthBatched);
BENCHMARK(BM_VarLengthPerTuple);

constexpr const char* kUnwind =
    "UNWIND range(1, 4096) AS x RETURN count(*) AS c";

void BM_UnwindBatched(benchmark::State& s) { RunQuery(s, kUnwind, 1024); }
void BM_UnwindPerTuple(benchmark::State& s) { RunQuery(s, kUnwind, 1); }
BENCHMARK(BM_UnwindBatched);
BENCHMARK(BM_UnwindPerTuple);

/// range(0) `:Person {id, score, age}` nodes (age spread over 18..80),
/// each with 8 KNOWS to (i + k * 7919) mod N, built once per size.
std::shared_ptr<const PropertyGraph> PersonGraph(size_t n) {
  static std::map<size_t, std::shared_ptr<const PropertyGraph>> built;
  std::shared_ptr<const PropertyGraph>& g = built[n];
  if (g == nullptr) {
    PropertyGraph b;
    for (size_t i = 0; i < n; ++i) {
      int64_t id = static_cast<int64_t>(i);
      b.CreateNode({"Person"}, {{"id", Value::Int(id)},
                                {"score", Value::Int(id % 100)},
                                {"age", Value::Int(18 + id * 37 % 63)}});
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 1; k <= 8; ++k) {
        if (!b.CreateRelationship(NodeId{i}, NodeId{(i + k * 7919) % n},
                                  "KNOWS")
                 .ok()) {
          std::fprintf(stderr, "PersonGraph: relationship create failed\n");
          std::exit(1);
        }
      }
    }
    g = b.Snapshot();
  }
  return g;
}

/// Runs `query` as a prepared statement with `$id` cycling over the ids
/// and the age window [$lo, $hi) over 8 of the 63 ages; ns_per_row
/// divides the time by the N Persons each run scans.
void RunScan(benchmark::State& state, const char* query) {
  const size_t n = static_cast<size_t>(state.range(0));
  EngineOptions opts;
  opts.num_threads = 1;
  Database db = bench::MakeDatabase(PersonGraph(n)->Clone(), opts);
  Result<PreparedQuery> prepared = db.Prepare(query);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  ValueMap params;
  size_t i = 0;
  for (auto _ : state) {
    params["id"] = Value::Int(static_cast<int64_t>(i % n));
    params["lo"] = Value::Int(static_cast<int64_t>(18 + i % 56));
    params["hi"] = Value::Int(static_cast<int64_t>(26 + i % 56));
    ++i;
    auto r = db.Execute(*prepared, params);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->table);
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_CountScan(benchmark::State& s) {
  RunScan(s, "MATCH (p:Person) RETURN count(p)");
}
void BM_IdFilterScan(benchmark::State& s) {
  RunScan(s, "MATCH (p:Person {id: $id}) RETURN p.name, p.score");
}
constexpr const char* kRangeFilter =
    "MATCH (p:Person) WHERE p.age >= $lo AND p.age < $hi "
    "RETURN p.id AS id, p.score AS score ORDER BY score DESC, id LIMIT 20";

void BM_RangeFilterScan(benchmark::State& s) { RunScan(s, kRangeFilter); }
BENCHMARK(BM_CountScan)->Arg(2000)->Arg(200000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IdFilterScan)
    ->Arg(2000)
    ->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RangeFilterScan)->Arg(20000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
