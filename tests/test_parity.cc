// Property/parity tests: the reference interpreter (the
// paper's formal semantics, §4) and the Volcano runtime (§2 "Neo4j
// implementation") must produce identical result *bags* on a corpus of
// read queries over randomized graphs — and the cost planner's plans must
// agree with forced anchors ("implementations are free to re-order the
// execution of clauses if this does not change the semantics of the
// query", §2).

#include <gtest/gtest.h>

#include "fixtures/generators.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/parser.h"
#include "src/plan/runtime.h"
#include "tests/test_interp_util.h"

namespace gqlite {
namespace {

/// The read-query corpus: clause combinations, variable-length patterns,
/// optional matches, aggregation, nulls, unions, predicates.
const char* kCorpus[] = {
    "MATCH (a) RETURN count(*) AS c",
    "MATCH (a:A) RETURN a ORDER BY id(a)",
    "MATCH (a)-[r]->(b) RETURN a, r, b",
    "MATCH (a)-[r:T]->(b) RETURN id(a), id(b) ORDER BY id(a), id(b)",
    "MATCH (a)<-[r:U]-(b) RETURN count(*) AS c",
    "MATCH (a)-[r]-(b) RETURN count(*) AS c",
    "MATCH (a:A)-[:T]->(b:B) RETURN a.v, b.v",
    "MATCH (a)-[:T]->(b)-[:T]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[:T]->(b)<-[:U]-(c) RETURN count(*) AS c",
    "MATCH (a)-[*1..2]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:T*1..3]->(b) RETURN id(a), id(b)",
    "MATCH (a)-[rs:T*0..2]->(b) RETURN size(rs) AS hops, count(*) AS c",
    "MATCH (a)-[*2]-(b) RETURN count(*) AS c",
    "MATCH (a)-[r]->(a) RETURN count(*) AS c",
    "MATCH (a), (b) WHERE id(a) < id(b) RETURN count(*) AS c",
    "MATCH (a)-[r1]->(b), (b)-[r2]->(c) RETURN count(*) AS c",
    "MATCH (a) OPTIONAL MATCH (a)-[:T]->(b) RETURN id(a), b",
    "MATCH (a) OPTIONAL MATCH (a)-[:T]->(b:B) WHERE b.v > 2 "
    "RETURN id(a), b.v",
    "MATCH (a:A) OPTIONAL MATCH (a)-[r:U]->(b) RETURN a.v, count(b) AS c",
    "MATCH (a) WHERE a.v >= 3 RETURN a.v ORDER BY a.v DESC LIMIT 3",
    "MATCH (a) WITH a.v AS v WHERE v > 1 RETURN v ORDER BY v SKIP 1",
    "MATCH (a) RETURN DISTINCT a.v AS v ORDER BY v",
    "MATCH (a) RETURN a.v % 3 AS g, count(*) AS c, sum(a.v) AS s, "
    "min(a.v) AS mn, max(a.v) AS mx, avg(a.v) AS av ORDER BY g",
    "MATCH (a) RETURN collect(DISTINCT a.v) AS vs",
    "MATCH (a)-[r]->() RETURN type(r) AS t, count(*) AS c ORDER BY t",
    "MATCH (a) WHERE (a)-[:T]->() RETURN count(*) AS c",
    "MATCH (a) WHERE NOT (a)-[:U]->(:B) RETURN count(*) AS c",
    "MATCH (a) WHERE a:A OR a:B RETURN count(*) AS c",
    "MATCH (a) WHERE exists(a.v) AND a.v IN [1, 2, 3] RETURN count(*) AS c",
    "UNWIND [1, 2, 3] AS x MATCH (a {v: x}) RETURN x, count(*) AS c",
    "MATCH (a) UNWIND [a.v, a.v + 10] AS x RETURN count(x) AS c",
    "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v",
    "MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v",
    "MATCH (a) WITH count(*) AS n MATCH (b) RETURN n, count(*) AS m",
    "MATCH (a)-[r:T {w: 1}]->(b) RETURN count(*) AS c",
    "MATCH (a {v: 1})-[:T]->(b) RETURN id(b) ORDER BY id(b)",
    "MATCH p0 = (a)-[:T]->(b) RETURN count(*) AS c",  // fallback operator
    "MATCH (a) RETURN CASE WHEN a.v > 2 THEN 'hi' ELSE 'lo' END AS bucket, "
    "count(*) AS c ORDER BY bucket",
    "MATCH (a) RETURN [x IN [1, 2, 3] WHERE x > a.v % 2 | x * 2] AS xs "
    "ORDER BY id(a) LIMIT 2",
    "MATCH (a) WHERE a.v IS NOT NULL RETURN a.v ORDER BY a.v LIMIT 5",
    "MATCH (x)-[*0..]->(x) RETURN count(*) AS c",
    "MATCH (a)-[rs:T*1..2]->(b) WHERE all(r IN rs WHERE r.w >= 0) "
    "RETURN count(*) AS c",
    "MATCH (a) WHERE any(x IN [a.v, 3] WHERE x = 3) RETURN count(*) AS c",
    "MATCH (a) WITH collect(a.v) AS vs "
    "RETURN reduce(s = 0, v IN vs | s + v) AS total",
    "MATCH (a)-[r]->(b) RETURN reduce(s = '', t IN [type(r)] | s + t) AS t, "
    "count(*) AS c ORDER BY t",
    "MATCH (a) RETURN single(l IN labels(a) WHERE l = 'A') AS isA, "
    "count(*) AS c ORDER BY isA",
};

// Plans with the Planner and drains with ExecutePlan — the layer this
// harness tests, below Database — on `graph` with an empty catalog.
Result<Table> PlanAndDrain(const GraphPtr& graph, const ast::Query& q,
                           PlannerOptions opts, uint64_t rand_state) {
  GraphCatalog catalog;
  ValueMap params;
  // Below Database, the harness must honor the CI morsel-size override
  // itself (the batch-size-1 sanitizer leg relies on this corpus walking
  // the batch-boundary resume paths).
  GQL_ASSIGN_OR_RETURN(opts.batch_size, EffectiveBatchSize(opts.batch_size));
  Planner planner(&catalog, graph, &params, opts, &rand_state);
  GQL_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(q));
  return ExecutePlan(&plan, opts.batch_size);
}

Result<Table> RunVolcano(GraphPtr graph, const std::string& query,
                         ExpandStrategy expand = ExpandStrategy::kCost,
                         DirectionPolicy direction = DirectionPolicy::kCost) {
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  (void)info;
  PlannerOptions opts;
  opts.expand_strategy = expand;
  opts.direction_policy = direction;
  return PlanAndDrain(graph, q, opts, 0xC0FFEE);
}

/// The planner settings every corpus query runs under: the cost planner,
/// the naive left-to-right plan, and an anchor forced to the chain's
/// last node.
struct PlannerSetting {
  const char* name;
  ExpandStrategy expand;
  DirectionPolicy direction;
};
const PlannerSetting kPlannerSettings[] = {
    {"cost", ExpandStrategy::kCost, DirectionPolicy::kCost},
    {"left-to-right", ExpandStrategy::kAdjacency,
     DirectionPolicy::kForceRight},
    {"force-left", ExpandStrategy::kCost, DirectionPolicy::kForceLeft},
};

class ParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParityTest, InterpreterVsVolcanoOnRandomGraphs) {
  const char* query = GetParam();
  for (uint64_t seed : {1u, 7u, 23u}) {
    GraphPtr g = workload::MakeRandomGraph(24, 40, seed);
    auto reference = testutil::RunInterp(g, query);
    ASSERT_TRUE(reference.ok())
        << query << "\n  " << reference.status().ToString();
    for (const PlannerSetting& setting : kPlannerSettings) {
      auto planned = RunVolcano(g, query, setting.expand, setting.direction);
      ASSERT_TRUE(planned.ok())
          << query << "\n  " << planned.status().ToString();
      EXPECT_TRUE(reference->SameBag(*planned))
          << "seed " << seed << " planner " << setting.name
          << "\nquery: " << query << "\ninterpreter:\n"
          << reference->ToString() << "volcano:\n" << planned->ToString();
    }
    // The hash-join expand baseline must also agree (E14 is about speed,
    // not results).
    auto joined = RunVolcano(g, query, ExpandStrategy::kHashJoin);
    ASSERT_TRUE(joined.ok()) << query << "\n  " << joined.status().ToString();
    EXPECT_TRUE(reference->SameBag(*joined)) << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParityTest, ::testing::ValuesIn(kCorpus));

TEST(ParityDense, CliqueAndGrid) {
  // Dense graphs stress relationship isomorphism and variable-length
  // multiplicities.
  const char* queries[] = {
      "MATCH (a)-[*1..2]->(b) RETURN count(*) AS c",
      "MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) WHERE a.idx < c.idx "
      "RETURN count(*) AS c",
      "MATCH (a)-[:RIGHT*0..3]->(b) RETURN count(*) AS c",
      "MATCH (a)-[:RIGHT]->(b)-[:DOWN]->(c) RETURN count(*) AS c",
  };
  std::vector<GraphPtr> graphs = {workload::MakeClique(5),
                                  workload::MakeGrid(3, 3)};
  for (const auto& g : graphs) {
    for (const char* q : queries) {
      auto reference = testutil::RunInterp(g, q);
      ASSERT_TRUE(reference.ok()) << q;
      auto planned = RunVolcano(g, q);
      ASSERT_TRUE(planned.ok()) << q << planned.status().ToString();
      EXPECT_TRUE(reference->SameBag(*planned))
          << q << "\ninterp:\n" << reference->ToString() << "volcano:\n"
          << planned->ToString();
    }
  }
}

TEST(ParityMorphism, ModesAgreeAcrossEngines) {
  GraphPtr g = workload::MakeCycle(4);
  const char* q = "MATCH (a)-[*1..4]->(a) RETURN count(*) AS c";
  for (Morphism m : {Morphism::kEdgeIsomorphism, Morphism::kNodeIsomorphism,
                     Morphism::kHomomorphism}) {
    MatchOptions mo;
    mo.morphism = m;
    mo.max_var_length = 4;
    auto reference = testutil::RunInterp(g, q, {}, mo);
    ASSERT_TRUE(reference.ok());
    auto parsed = ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    PlannerOptions opts;
    opts.match = mo;
    auto planned = PlanAndDrain(g, *parsed, opts, 1);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_TRUE(reference->SameBag(*planned)) << static_cast<int>(m);
  }
}

}  // namespace
}  // namespace gqlite
