// Forced-plan differential harness for the cost-based planner: every
// side of every choice the cost model makes (adjacency Expand vs
// relationship-store HashJoinExpand per hop, left-to-right vs
// right-to-left chain direction) must produce the SAME bag of rows. The
// harness generates seeded chain-shaped queries — the shapes where the
// planner's DecideChain search actually has choices — and pins every
// forced configuration, across the serial batched (morsel 1 and 1024)
// and parallel (1, 2 and 4 worker) executor legs, to the reference
// interpreter. A cost model that merely picks SLOW plans is a perf bug;
// one whose alternatives disagree is a correctness bug, and this is the
// test that catches it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/plan/runtime.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

/// splitmix64, same as test_differential.cc: deterministic everywhere.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(int percent) {
    return Below(100) < static_cast<uint64_t>(percent);
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }
};

/// A graph with DELIBERATELY lopsided statistics, so the cost-based
/// choices are non-trivial: a few :Hub nodes with large out-fans of :R,
/// many :Leaf nodes, a sparse :S type, and property `v` (10 distinct
/// values) / `id` (unique) for selective equality predicates.
GraphPtr MakeChainGraph(uint64_t seed) {
  Rng rng{seed};
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> hubs;
  std::vector<NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    hubs.push_back(g->CreateNode(
        {"Hub"}, {{"id", Value::Int(i)},
                  {"v", Value::Int(static_cast<int64_t>(rng.Below(10)))}}));
  }
  for (int i = 0; i < 120; ++i) {
    leaves.push_back(g->CreateNode(
        {"Leaf"}, {{"id", Value::Int(100 + i)},
                   {"v", Value::Int(static_cast<int64_t>(rng.Below(10)))}}));
  }
  // Dense hub->leaf :R edges (big forward fan, tiny reverse fan).
  for (NodeId h : hubs) {
    for (int i = 0; i < 25; ++i) {
      auto r = g->CreateRelationship(h, leaves[rng.Below(leaves.size())],
                                     "R", {});
      EXPECT_TRUE(r.ok());
    }
  }
  // Sparse leaf->leaf :S edges (cheap either way).
  for (int i = 0; i < 60; ++i) {
    auto r = g->CreateRelationship(leaves[rng.Below(leaves.size())],
                                   leaves[rng.Below(leaves.size())], "S", {});
    EXPECT_TRUE(r.ok());
  }
  // A few leaf->hub :S backlinks so <- traversals reach hubs too.
  for (int i = 0; i < 20; ++i) {
    auto r = g->CreateRelationship(leaves[rng.Below(leaves.size())],
                                   hubs[rng.Below(hubs.size())], "S", {});
    EXPECT_TRUE(r.ok());
  }
  return g;
}

struct GeneratedQuery {
  std::string text;
  bool ordered = false;
};

/// One random chain query of 1-3 hops: mixed arrow directions, types,
/// labels, WHERE equalities (the selectivities the cost model ranks
/// anchors by) and an occasional short var-length hop. The output is
/// always a bag of scalars, never collect(): row ORDER legitimately
/// differs between plan shapes, the row BAG must not.
GeneratedQuery GenerateChainQuery(Rng& rng) {
  const std::vector<std::string> labels = {"", ":Hub", ":Leaf"};
  const std::vector<std::string> types = {"", ":R", ":S", ":R|S"};
  GeneratedQuery out;
  size_t hops = 1 + rng.Below(3);
  std::vector<std::string> vars;
  std::string match = "MATCH ";
  for (size_t i = 0; i <= hops; ++i) {
    std::string v(1, static_cast<char>('a' + i));
    vars.push_back(v);
    match += "(" + v + rng.Pick(labels) + ")";
    if (i == hops) break;
    std::string rel = "[" + rng.Pick(types);
    if (hops == 1 && rng.Chance(20)) {
      rel += "*1.." + std::to_string(1 + rng.Below(2));
    }
    rel += "]";
    match += rng.Chance(50) ? ("-" + rel + "->") : ("<-" + rel + "-");
  }
  if (rng.Chance(70)) {
    const std::string& x = rng.Pick(vars);
    switch (rng.Below(4)) {
      case 0:
        match += " WHERE " + x + ".id = " + std::to_string(rng.Below(130));
        break;
      case 1:
        match += " WHERE " + x + ".v = " + std::to_string(rng.Below(10));
        break;
      case 2:
        match += " WHERE " + x + ".v > " + std::to_string(rng.Below(9));
        break;
      default:
        match += " WHERE " + x + ":Leaf";
        break;
    }
    if (rng.Chance(30)) {
      const std::string& y = rng.Pick(vars);
      match += " AND " + y + ".v <= " + std::to_string(1 + rng.Below(9));
    }
  }
  std::string ret = " RETURN ";
  if (rng.Chance(30)) {
    ret += "count(*) AS c";
  } else {
    ret += vars.front() + ".id AS x, " + vars.back() + ".id AS y";
    if (rng.Chance(50)) {
      ret += " ORDER BY x, y";
      out.ordered = true;
    }
  }
  out.text = match + ret;
  return out;
}

TEST(ForcedPlans, AllPlanAlternativesAgreeOnEveryExecutorLeg) {
  auto eff_threads = EffectiveNumThreads(4);
  ASSERT_TRUE(eff_threads.ok()) << eff_threads.status().ToString();

  GraphPtr graph = MakeChainGraph(0xF0ECEDCA5E5ULL);

  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  Database oracle = testutil::OpenOn(graph, interp_opts);

  // Every forced (expand strategy, direction) corner plus the cost-based
  // default, each across the five executor legs.
  struct Config {
    const char* name;
    ExpandStrategy strategy;
    DirectionPolicy direction;
  };
  const std::vector<Config> configs = {
      {"adjacency/right", ExpandStrategy::kAdjacency,
       DirectionPolicy::kForceRight},
      {"adjacency/left", ExpandStrategy::kAdjacency,
       DirectionPolicy::kForceLeft},
      {"hashjoin/right", ExpandStrategy::kHashJoin,
       DirectionPolicy::kForceRight},
      {"hashjoin/left", ExpandStrategy::kHashJoin,
       DirectionPolicy::kForceLeft},
      {"cost/cost", ExpandStrategy::kCost, DirectionPolicy::kCost},
  };
  struct Leg {
    size_t batch;
    size_t threads;
  };
  const std::vector<Leg> legs = {{1, 1}, {1024, 1}, {1024, 1}, {1024, 2},
                                 {1024, 4}};

  struct Runtime {
    std::string name;
    Database db;
  };
  std::vector<Runtime> runtimes;
  for (const Config& c : configs) {
    for (const Leg& l : legs) {
      EngineOptions opts;
      opts.batch_size = l.batch;
      opts.num_threads = l.threads;
      opts.expand_strategy = c.strategy;
      opts.direction_policy = c.direction;
      runtimes.push_back({std::string(c.name) + "/b" +
                              std::to_string(l.batch) + "t" +
                              std::to_string(l.threads),
                          testutil::OpenOn(graph, opts)});
    }
  }

  Rng rng{0xF02CEDBEEFULL};
  const int kCases = 160;
  int executed = 0;
  for (int i = 0; i < kCases; ++i) {
    GeneratedQuery q = GenerateChainQuery(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + q.text);
    auto want = oracle.Execute(q.text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ++executed;
    for (auto& rt : runtimes) {
      auto got = rt.db.Execute(q.text);
      ASSERT_TRUE(got.ok()) << rt.name << ": " << got.status().ToString();
      EXPECT_TRUE(want->table.SameBag(got->table))
          << rt.name << " diverges\noracle:\n"
          << want->table.ToString() << rt.name << ":\n"
          << got->table.ToString();
      if (q.ordered) {
        EXPECT_EQ(want->table.ToString(), got->table.ToString())
            << rt.name << " ordered output is not byte-identical";
      }
    }
  }
  EXPECT_EQ(executed, kCases);
}

// ---- GQLITE_PLAN_MODE parsing ----------------------------------------------

/// Same scoped-env helper as test_engine.cc (anonymous namespaces keep
/// the two definitions from colliding).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(PlanModeEnv, TokensApplyOverProgrammaticOptions) {
  ScopedEnv env("GQLITE_PLAN_MODE", "hashjoin,force-left,greedy");
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kAdjacency;  // overridden
  Database db = testutil::OpenOn(nullptr, opts);
  const EngineOptions& applied = db.engine().options();
  EXPECT_EQ(applied.expand_strategy, ExpandStrategy::kHashJoin);
  EXPECT_EQ(applied.direction_policy, DirectionPolicy::kForceLeft);
  EXPECT_EQ(applied.planner, PlannerOptions::Mode::kGreedy);
  EXPECT_TRUE(db.Execute("RETURN 1 AS one").ok());
}

TEST(PlanModeEnv, CostTokensRestoreTheDefaults) {
  ScopedEnv env("GQLITE_PLAN_MODE", "cost-expand,cost-direction,dp");
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  opts.direction_policy = DirectionPolicy::kForceRight;
  Database db = testutil::OpenOn(nullptr, opts);
  const EngineOptions& applied = db.engine().options();
  EXPECT_EQ(applied.expand_strategy, ExpandStrategy::kCost);
  EXPECT_EQ(applied.direction_policy, DirectionPolicy::kCost);
  EXPECT_EQ(applied.planner, PlannerOptions::Mode::kDpStarts);
}

TEST(PlanModeEnv, UnknownTokenIsAClearErrorNotAClamp) {
  for (const char* garbage : {"fastest", "hash join", "adjacency,", ",",
                              "adjacency;hashjoin", "FORCE-LEFT"}) {
    ScopedEnv env("GQLITE_PLAN_MODE", garbage);
    auto db = Database::OpenInMemory();
    ASSERT_FALSE(db.ok()) << "accepted GQLITE_PLAN_MODE=" << garbage;
    EXPECT_NE(db.status().ToString().find("GQLITE_PLAN_MODE"),
              std::string::npos)
        << db.status().ToString();
  }
}

}  // namespace
}  // namespace gqlite
