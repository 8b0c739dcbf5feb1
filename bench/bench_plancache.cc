// Plan-cache benchmark: cold vs warm throughput on repeated
// parameterized queries (§2 motivates built-in parameters precisely so
// plans can be reused across calls). Three rungs per planner mode:
//
//   * Cold  — plan cache disabled: every query pays
//             parse + analyze + plan + execute (the pre-cache behaviour,
//             also reachable everywhere via --no-plan-cache);
//   * WarmText — plan cache on, query arrives as text with a *different
//             literal each time*: auto-parameterization canonicalizes the
//             text so all variants share one plan (parse + cache hit +
//             execute);
//   * WarmPrepared — Prepare once, Execute per call with changing
//             parameters: the full warm path (execute only).
//
// The workload is a five-hop chain anchored on a highly selective label
// (four :Hub nodes in a 64-node out-degree-1 ring, so each execution
// walks exactly one path): execution is cheap and the frontend + planner
// are a large share of the cold cost — the regime where a plan cache
// pays. Target: WarmPrepared ≥ 2× Cold throughput.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

constexpr int64_t kPeople = 64;
constexpr int64_t kHubs = 4;

GraphPtr MakeRing() {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> nodes;
  nodes.reserve(kPeople);
  for (int64_t i = 0; i < kPeople; ++i) {
    std::vector<std::string> labels = {"P"};
    if (i < kHubs) labels.push_back("Hub");
    nodes.push_back(g->CreateNode(labels, {{"id", Value::Int(i)}}));
  }
  for (int64_t i = 0; i < kPeople; ++i) {
    g->CreateRelationship(nodes[i], nodes[(i + 1) % kPeople], "K").value();
  }
  return g;
}

// A five-hop chain with WHERE conjuncts: real frontend + planner work
// (anchor search over six positions, filter placement), one-path
// execution.
std::string QueryWithLiteral(int64_t id) {
  std::string lit = std::to_string(id);
  return "MATCH (a:Hub {id: " + lit +
         "})-[:K]->(n1)-[:K]->(n2)-[:K]->(n3)-[:K]->(n4)-[:K]->(n5) "
         "WHERE n1.id <> " + lit +
         " AND n3.id >= 0 RETURN count(n5) AS n";
}

const char* kParamQuery =
    "MATCH (a:Hub {id: $id})-[:K]->(n1)-[:K]->(n2)-[:K]->(n3)-[:K]->(n4)"
    "-[:K]->(n5) WHERE n1.id <> $id AND n3.id >= 0 "
    "RETURN count(n5) AS n";

int64_t MustCount(Result<QueryResult> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench query failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r->table.rows()[0][0].AsInt();
}

/// The priming run must see the ring: a zero count means the engine is
/// not actually wired to the workload graph and the benchmark would
/// silently time an empty-graph no-op.
int64_t MustBeNonEmpty(int64_t count) {
  if (count <= 0) {
    std::fprintf(stderr, "bench workload is empty (count=%lld)\n",
                 static_cast<long long>(count));
    std::exit(1);
  }
  return count;
}

EngineOptions Opts(PlannerOptions::Mode planner, bool cache) {
  EngineOptions opts;
  opts.planner = planner;
  opts.plan_cache_capacity = cache ? PlanCache::kDefaultCapacity : 0;
  return opts;
}

void BM_Cold(benchmark::State& state, PlannerOptions::Mode planner) {
  Database db = bench::MakeDatabase(MakeRing(), Opts(planner, false));
  MustBeNonEmpty(MustCount(db.Execute(QueryWithLiteral(0))));
  int64_t id = 0, rows = 0;
  for (auto _ : state) {
    rows += MustCount(db.Execute(QueryWithLiteral(id)));
    id = (id + 1) % kHubs;
  }
  benchmark::DoNotOptimize(rows);
}

void BM_WarmText(benchmark::State& state, PlannerOptions::Mode planner) {
  Database db = bench::MakeDatabase(MakeRing(), Opts(planner, true));
  MustBeNonEmpty(MustCount(db.Execute(QueryWithLiteral(0))));  // prime
  int64_t id = 0, rows = 0;
  for (auto _ : state) {
    rows += MustCount(db.Execute(QueryWithLiteral(id)));
    id = (id + 1) % kHubs;
  }
  benchmark::DoNotOptimize(rows);
  const PlanCacheStats& s = db.engine().plan_cache_stats();
  state.counters["hits"] = static_cast<double>(s.hits);
  state.counters["misses"] = static_cast<double>(s.misses);
}

void BM_WarmPrepared(benchmark::State& state, PlannerOptions::Mode planner) {
  Database db = bench::MakeDatabase(MakeRing(), Opts(planner, true));
  auto stmt = db.Prepare(kParamQuery);
  if (!stmt.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 stmt.status().ToString().c_str());
    std::exit(1);
  }
  MustBeNonEmpty(
      MustCount(db.Execute(*stmt, {{"id", Value::Int(0)}})));  // prime
  int64_t id = 0, rows = 0;
  for (auto _ : state) {
    rows += MustCount(db.Execute(*stmt, {{"id", Value::Int(id)}}));
    id = (id + 1) % kHubs;
  }
  benchmark::DoNotOptimize(rows);
  const PlanCacheStats& s = db.engine().plan_cache_stats();
  state.counters["hits"] = static_cast<double>(s.hits);
  state.counters["misses"] = static_cast<double>(s.misses);
}

void BM_ColdGreedy(benchmark::State& state) {
  BM_Cold(state, PlannerOptions::Mode::kGreedy);
}
void BM_WarmTextGreedy(benchmark::State& state) {
  BM_WarmText(state, PlannerOptions::Mode::kGreedy);
}
void BM_WarmPreparedGreedy(benchmark::State& state) {
  BM_WarmPrepared(state, PlannerOptions::Mode::kGreedy);
}
void BM_ColdDpStarts(benchmark::State& state) {
  BM_Cold(state, PlannerOptions::Mode::kDpStarts);
}
void BM_WarmTextDpStarts(benchmark::State& state) {
  BM_WarmText(state, PlannerOptions::Mode::kDpStarts);
}
void BM_WarmPreparedDpStarts(benchmark::State& state) {
  BM_WarmPrepared(state, PlannerOptions::Mode::kDpStarts);
}

BENCHMARK(BM_ColdGreedy);
BENCHMARK(BM_WarmTextGreedy);
BENCHMARK(BM_WarmPreparedGreedy);
BENCHMARK(BM_ColdDpStarts);
BENCHMARK(BM_WarmTextDpStarts);
BENCHMARK(BM_WarmPreparedDpStarts);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
