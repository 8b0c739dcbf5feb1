// Experiment E20 (README.md): frontend throughput over a corpus covering
// the Figure 3 and Figure 5 grammars — tokenizer, parser, analyzer and
// the unparse round-trip.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/ast_printer.h"
#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"

namespace gqlite {
namespace {

const char* kCorpus[] = {
    "MATCH (n) RETURN n",
    "MATCH (a:Person {name: 'x'})-[r:KNOWS*1..3 {since: 1985}]->(b) "
    "WHERE a.age > 30 AND b.name STARTS WITH 'A' RETURN a, r, b",
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
    "WITH r, count(s) AS c MATCH (r)-[:AUTHORS]->(p) "
    "OPTIONAL MATCH (p)<-[:CITES*]-(q) RETURN r.name, c, "
    "count(DISTINCT q) AS cited",
    "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) RETURN svc, "
    "count(DISTINCT dep) AS dependents ORDER BY dependents DESC LIMIT 1",
    "MATCH (h:AccountHolder)-[:HAS]->(p) WHERE p:SSN OR p:PhoneNumber "
    "WITH p, collect(h.uniqueId) AS hs, count(*) AS n WHERE n > 1 "
    "RETURN hs, labels(p) AS info, n",
    "UNWIND [1, 2, 3] AS x WITH x WHERE x > 1 RETURN x * 2 AS y "
    "ORDER BY y DESC SKIP 1 LIMIT 10",
    "MATCH (a) RETURN CASE a.v WHEN 1 THEN 'one' WHEN 2 THEN 'two' "
    "ELSE 'many' END AS label, [x IN range(1, 10) WHERE x % 2 = 0 | x ^ 2] "
    "AS squares",
    "CREATE (a:A {x: 1})-[:T {w: 2.5}]->(b:B) SET a.y = [1, 2], b:Marked "
    "REMOVE a.x",
    "MERGE (c:City {name: 'Oslo'}) ON CREATE SET c.new = true "
    "ON MATCH SET c.seen = coalesce(c.seen, 0) + 1",
    "MATCH (a:X) RETURN a.v AS v UNION ALL MATCH (b:Y) RETURN b.v AS v",
    "FROM GRAPH soc_net AT \"hdfs://x/y\" MATCH (a)-[r1:F]-()-[r2:F]-(b) "
    "WHERE abs(r2.since - r1.since) < $d WITH DISTINCT a, b "
    "RETURN GRAPH friends OF (a)-[:SHARE]->(b)",
    "MATCH (x) WHERE x.when >= date('2018-06-10') AND "
    "x.dur < duration('P1Y2M') RETURN x.when + duration('P1D') AS next",
};

void BM_Tokenize(benchmark::State& state) {
  size_t bytes = 0;
  for (auto _ : state) {
    for (const char* q : kCorpus) {
      auto toks = Tokenize(q);
      benchmark::DoNotOptimize(toks);
      bytes += std::string_view(q).size();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Tokenize);

void BM_Parse(benchmark::State& state) {
  size_t bytes = 0;
  for (auto _ : state) {
    for (const char* q : kCorpus) {
      auto ast = ParseQuery(q);
      if (!ast.ok()) {
        state.SkipWithError(ast.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(ast);
      bytes += std::string_view(q).size();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Parse);

void BM_ParseAnalyze(benchmark::State& state) {
  for (auto _ : state) {
    for (const char* q : kCorpus) {
      auto ast = ParseQuery(q);
      if (!ast.ok()) {
        state.SkipWithError(ast.status().ToString().c_str());
        return;
      }
      auto info = Analyze(*ast);
      benchmark::DoNotOptimize(info);
    }
  }
}
BENCHMARK(BM_ParseAnalyze);

void BM_UnparseRoundTrip(benchmark::State& state) {
  std::vector<ast::Query> parsed;
  for (const char* q : kCorpus) {
    auto r = ParseQuery(q);
    parsed.push_back(std::move(r).value());
  }
  for (auto _ : state) {
    for (const auto& q : parsed) {
      std::string text = UnparseQuery(q);
      benchmark::DoNotOptimize(text);
    }
  }
}
BENCHMARK(BM_UnparseRoundTrip);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
