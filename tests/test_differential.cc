// Differential test harness pinning the batched and morsel-driven
// PARALLEL runtimes to the single-threaded oracle. A seeded random-query
// generator (MATCH / WHERE / WITH / RETURN / ORDER BY / aggregation over
// a generated property graph) executes every query on
//
//   * the reference interpreter — the implementation of the paper's
//     formal semantics (Francis et al.'s SameBag equivalence is the
//     oracle relation),
//   * the batched Volcano runtime at morsel sizes 1 and 1024,
//   * the parallel runtime at 1, 2 and 4 workers,
//
// and asserts SameBag-identical results everywhere (byte-identical when
// the query is fully ordered). Queries are deterministic from a fixed
// seed, so a failure reproduces by number. The grammar is deliberately
// string-heavy — short (inline-representation) and long (shared heap
// representation) string properties, toUpper/substring/concatenation
// projections, string WHERE predicates and string GROUP BY keys — so the
// copy-on-write value representation is pinned by the oracle on every
// executor leg (batch 1/1024, 1/2/4 workers).
//
// collect() is the one bag-breaking aggregate: its LIST order mirrors
// the executor's row order, which legitimately differs between the
// interpreter and the planner's chosen pipeline (and, for var-length
// patterns, between morsel sizes). collect() cases therefore pin the
// parallel runtimes against the serial BATCHED oracle (same plan, same
// row order) instead of the interpreter, and avoid var-length hops.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/plan/runtime.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

/// splitmix64: deterministic across platforms (std::mt19937 would be
/// too, but the distributions are not).
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(int percent) { return Below(100) < static_cast<uint64_t>(percent); }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }
};

/// ~150 nodes over labels {A, B, C} with integer properties `id`
/// (unique), `v` (0..9), `w` (0..4, present on ~60%), a SHORT string
/// `name` (inline small-string representation) and a LONG string `blurb`
/// (shared heap representation, ~40-70 bytes, present on ~80%), and ~400
/// relationships of types {R, S} with an integer `k` on ~70%. All
/// properties are integers or strings: float aggregation would make
/// per-partition partial sums legitimately differ in the last ulp.
GraphPtr MakeDifferentialGraph(uint64_t seed) {
  Rng rng{seed};
  auto g = std::make_shared<PropertyGraph>();
  const std::vector<std::vector<std::string>> label_sets = {
      {"A"}, {"B"}, {"C"}, {"A", "B"}, {}};
  const size_t n = 150;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n; ++i) {
    PropertyList props;
    props.emplace_back("id", Value::Int(static_cast<int64_t>(i)));
    props.emplace_back("v", Value::Int(static_cast<int64_t>(rng.Below(10))));
    if (rng.Chance(60)) {
      props.emplace_back("w", Value::Int(static_cast<int64_t>(rng.Below(5))));
    }
    // Appended in order: GCC 12's -Wrestrict misfires on
    // `"n" + std::to_string(i)` in Release builds.
    std::string name = "n";
    name += std::to_string(i);
    props.emplace_back("name", Value::String(std::move(name)));
    if (rng.Chance(80)) {
      // Long enough to always take the shared (heap) string path.
      std::string blurb = "blurb-" + std::to_string(i) + "-";
      while (blurb.size() < 40 + rng.Below(30)) {
        blurb += static_cast<char>('a' + rng.Below(26));
      }
      props.emplace_back("blurb", Value::String(std::move(blurb)));
    }
    nodes.push_back(g->CreateNode(rng.Pick(label_sets), props));
  }
  for (size_t e = 0; e < 400; ++e) {
    NodeId src = nodes[rng.Below(n)];
    NodeId tgt = nodes[rng.Below(n)];
    PropertyList props;
    if (rng.Chance(70)) {
      props.emplace_back("k", Value::Int(static_cast<int64_t>(rng.Below(6))));
    }
    auto r = g->CreateRelationship(src, tgt, rng.Chance(50) ? "R" : "S",
                                   props);
    EXPECT_TRUE(r.ok());
  }
  return g;
}

struct GeneratedQuery {
  std::string text;
  bool ordered = false;       // ORDER BY over every output column
  bool volcano_only = false;  // collect(): oracle is the serial batched run
};

/// One random query. The grammar stays inside the planner's pipeline
/// subset most of the time so the parallel runtime is actually
/// exercised, but deliberately includes serial-fallback shapes (WITH
/// aggregation, OPTIONAL MATCH) — the harness must also prove the
/// fallback routing is sound.
GeneratedQuery GenerateQuery(Rng& rng) {
  const std::vector<std::string> labels = {"", ":A", ":B", ":C"};
  const std::vector<std::string> types = {"", ":R", ":S", ":R|S"};
  const std::vector<std::string> int_props = {"v", "id", "w"};

  GeneratedQuery out;
  // ---- MATCH ----
  int shape = static_cast<int>(rng.Below(6));
  std::vector<std::string> node_vars;  // bound node variables
  std::string match = "MATCH ";
  auto arrow = [&](const std::string& rel) {
    switch (rng.Below(3)) {
      case 0: return "-" + rel + "->";
      case 1: return "<-" + rel + "-";
      default: return "-" + rel + "-";
    }
  };
  bool has_varlength = false;
  switch (shape) {
    case 0:  // single node
      match += "(a" + rng.Pick(labels) + ")";
      node_vars = {"a"};
      break;
    case 1:  // one hop
      match += "(a" + rng.Pick(labels) + ")" +
               arrow("[r" + rng.Pick(types) + "]") + "(b" + rng.Pick(labels) +
               ")";
      node_vars = {"a", "b"};
      break;
    case 2:  // two-hop chain
      match += "(a" + rng.Pick(labels) + ")" +
               arrow("[" + rng.Pick(types) + "]") + "(b)" +
               arrow("[" + rng.Pick(types) + "]") + "(c" + rng.Pick(labels) +
               ")";
      node_vars = {"a", "b", "c"};
      break;
    case 3:  // var-length
      match += "(a" + rng.Pick(labels) + ")-[" + rng.Pick(types) + "*1.." +
               std::to_string(1 + rng.Below(2)) + "]->(b)";
      node_vars = {"a", "b"};
      has_varlength = true;
      break;
    case 4:  // one hop with relationship property constraint
      match += "(a)" +
               arrow("[r" + rng.Pick(types) + " {k: " +
                     std::to_string(rng.Below(6)) + "}]") +
               "(b)";
      node_vars = {"a", "b"};
      break;
    default:  // cross product of two nodes
      match += "(a" + rng.Pick(labels) + "), (b" + rng.Pick(labels) + ")";
      node_vars = {"a", "b"};
      break;
  }

  // ---- WHERE ----
  auto predicate = [&]() -> std::string {
    const std::string& x = rng.Pick(node_vars);
    switch (rng.Below(9)) {
      case 0:
        return x + ".v > " + std::to_string(rng.Below(10));
      case 1:
        return x + ".v <= " + std::to_string(rng.Below(10));
      case 2:
        return x + ".id % " + std::to_string(2 + rng.Below(3)) + " = 0";
      case 3:
        return x + ".w IS NULL";
      case 4:
        return x + ".w IS NOT NULL";
      case 5:
        // Inline-string comparison: name is 'n<id>'.
        return x + ".name STARTS WITH 'n" + std::to_string(rng.Below(10)) +
               "'";
      case 6:
        return x + ".name " + (rng.Chance(50) ? ">= 'n5'" : "< 'n5'");
      case 7:
        // Heap-string comparison (blurb is absent on ~20%: exercises the
        // null path too).
        return x + ".blurb CONTAINS '" +
               std::string(1, static_cast<char>('a' + rng.Below(26))) + "'";
      default: {
        const std::string& y = rng.Pick(node_vars);
        return x + ".v = " + y + ".v";
      }
    }
  };
  if (rng.Chance(60)) {
    match += " WHERE " + predicate();
    if (rng.Chance(30)) {
      match += rng.Chance(50) ? " AND " : " OR ";
      match += predicate();
    }
  }

  // ---- optional WITH ----
  std::vector<std::string> cols;  // value columns available to RETURN
  std::vector<bool> col_is_int;   // parallel to cols: safe for sum()/avg()
  bool node_vars_in_scope = true;  // false once a WITH projects them away
  std::string with;
  if (rng.Chance(30)) {
    // Per-row WITH (parallel-safe): project properties, maybe filter.
    // ~half the projections produce STRINGS (case mapping, substring,
    // concatenation) so the shared/inline string representation flows
    // through WITH, the filter, grouping and ORDER BY on every executor.
    with = " WITH ";
    bool strings = rng.Chance(50);
    for (size_t i = 0; i < node_vars.size(); ++i) {
      if (i) with += ", ";
      if (strings) {
        switch (rng.Below(4)) {
          case 0:
            with += "toUpper(" + node_vars[i] + ".name)";
            break;
          case 1:
            with += "substring(" + node_vars[i] + ".blurb, 0, " +
                    std::to_string(1 + rng.Below(8)) + ")";
            break;
          case 2:
            with += node_vars[i] + ".name + '_' + " + node_vars[i] +
                    ".name";
            break;
          default:
            with += node_vars[i] + ".name + " + node_vars[i] + ".v";
            break;
        }
        with += " AS p" + std::to_string(i);
      } else {
        with += node_vars[i] + "." + rng.Pick(int_props) + " AS p" +
                std::to_string(i);
      }
      cols.push_back("p" + std::to_string(i));
      col_is_int.push_back(!strings);
    }
    if (rng.Chance(50)) {
      with += strings ? " WHERE p0 IS NOT NULL"
                      : " WHERE p0 >= " + std::to_string(rng.Below(8));
    }
    node_vars_in_scope = false;
  } else if (rng.Chance(12)) {
    // Aggregating WITH (serial fallback on purpose).
    with = " WITH " + node_vars[0] + "." + rng.Pick(int_props) +
           " AS p0, count(*) AS cnt";
    cols = {"p0", "cnt"};
    col_is_int = {true, true};
    node_vars_in_scope = false;
  } else {
    for (const std::string& v : node_vars) {
      if (rng.Chance(25)) {
        cols.push_back(v + (rng.Chance(70) ? ".name" : ".blurb"));
        col_is_int.push_back(false);
      } else {
        cols.push_back(v + "." + rng.Pick(int_props));
        col_is_int.push_back(true);
      }
    }
  }

  // ---- RETURN ----
  std::string ret = " RETURN ";
  std::vector<std::string> out_cols;
  int ret_shape = static_cast<int>(rng.Below(10));
  if (ret_shape < 4) {
    // Plain projection.
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i) ret += ", ";
      ret += cols[i] + " AS c" + std::to_string(i);
      out_cols.push_back("c" + std::to_string(i));
    }
  } else if (ret_shape < 7) {
    // Global aggregation. sum()/avg() are numeric-only, so they draw from
    // the integer columns; min/max/count(DISTINCT) accept the string
    // columns too (string orderability and hashing under aggregation).
    std::string int_col;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (col_is_int[i]) int_col = cols[i];
    }
    ret += "count(*) AS c0, min(" + cols[0] + ") AS c1, max(" +
           cols.back() + ") AS c2";
    if (!int_col.empty()) {
      ret += ", sum(" + int_col + ") AS c3, avg(" + int_col + ") AS c4";
    }
    if (rng.Chance(40)) {
      ret += ", count(DISTINCT " + cols[0] + ") AS c5";
    }
    out_cols.clear();  // single row; ordering is moot
  } else if (ret_shape < 9) {
    // Grouped aggregation; string keys take the same path as integer keys
    // (hash + equivalence over the shared representation). `x.name` is
    // only legal while the node variables are still in scope (no WITH
    // projected them away); otherwise a string column from `cols` serves
    // as the (possibly string) grouping key.
    if (node_vars_in_scope && (rng.Chance(35) || !col_is_int.back())) {
      const std::string& x = rng.Pick(node_vars);
      ret += x + ".name AS g, count(*) AS c, min(" + cols[0] +
             ") AS mn, max(" + cols.back() + ") AS mx";
    } else if (!col_is_int.back()) {
      ret += cols[0] + " AS g, count(*) AS c, min(" + cols.back() +
             ") AS mn, max(" + cols.back() + ") AS mx";
    } else {
      ret += cols[0] + " AS g, count(*) AS c, sum(" + cols.back() +
             ") AS s";
    }
    out_cols = {"g"};
  } else {
    // collect(): order-sensitive — volcano-only oracle, no var-length
    // (its emit order differs across morsel sizes).
    if (has_varlength) {
      ret += "count(*) AS c";
      out_cols.clear();
    } else {
      ret += "collect(" + cols[0] + ") AS vs";
      if (rng.Chance(50)) ret = " RETURN collect(DISTINCT " + cols[0] + ") AS vs";
      out_cols.clear();
      out.volcano_only = true;
    }
  }
  if (rng.Chance(20) && !out.volcano_only) {
    // DISTINCT projection.
    ret = " RETURN DISTINCT" + ret.substr(std::string(" RETURN").size());
  }

  // ---- ORDER BY over every output column (canonical order) ----
  if (!out_cols.empty() && rng.Chance(55)) {
    ret += " ORDER BY ";
    for (size_t i = 0; i < out_cols.size(); ++i) {
      if (i) ret += ", ";
      ret += out_cols[i];
      if (rng.Chance(30)) ret += " DESC";
    }
    out.ordered = true;
    // SKIP/LIMIT only on fully ordered output: ties are identical rows,
    // so the selected multiset is well-defined across executors.
    if (rng.Chance(40)) {
      if (rng.Chance(50)) ret += " SKIP " + std::to_string(rng.Below(5));
      ret += " LIMIT " + std::to_string(1 + rng.Below(20));
    }
  }

  out.text = match + with + ret;
  return out;
}

/// One random PIPELINE-BREAKER-heavy query (ISSUE 8): ORDER BY with
/// SKIP/LIMIT, DISTINCT projections, many-group (>= 64 groups)
/// aggregation, and intermediate-WITH breakers — the shapes the parallel
/// merge stages (parallel merge sort, aggregation merge, partitioned
/// DISTINCT) execute, generated to stay inside the planner's parallel
/// subset so the breaker paths actually run.
GeneratedQuery GenerateBreakerQuery(Rng& rng) {
  const std::vector<std::string> labels = {"", ":A", ":B", ":C"};
  GeneratedQuery out;
  std::string match = "MATCH (a" + rng.Pick(labels) + ")";
  std::vector<std::string> vars = {"a"};
  if (rng.Chance(35)) {
    match += (rng.Chance(50) ? "-[:R]->" : "-[:S]->") + std::string("(b)");
    vars.push_back("b");
  }
  if (rng.Chance(40)) {
    match += " WHERE " + rng.Pick(vars) + ".v " +
             (rng.Chance(50) ? ">= " : "< ") + std::to_string(rng.Below(9));
  }
  switch (rng.Below(5)) {
    case 0: {
      // Parallel merge sort with the top-K pushdown: fully ordered
      // output, SKIP and/or LIMIT.
      std::string ret = " RETURN " + vars[0] + ".id AS x, " +
                        rng.Pick(vars) + ".v AS y ORDER BY x" +
                        (rng.Chance(30) ? " DESC" : "") + ", y";
      if (rng.Chance(60)) ret += " SKIP " + std::to_string(rng.Below(20));
      ret += " LIMIT " + std::to_string(1 + rng.Below(40));
      out.text = match + ret;
      out.ordered = true;
      break;
    }
    case 1: {
      // Partitioned DISTINCT, optionally + merge sort above it.
      std::string ret = " RETURN DISTINCT " + rng.Pick(vars) + ".v AS x, " +
                        rng.Pick(vars) + ".w AS y";
      if (rng.Chance(60)) {
        ret += " ORDER BY x, y";
        out.ordered = true;
        if (rng.Chance(40)) ret += " LIMIT " + std::to_string(1 + rng.Below(12));
      }
      out.text = match + ret;
      break;
    }
    case 2: {
      // Many-group aggregation merge: id/name group keys give >= 64
      // groups over the 150-node graph (integer and string key hashing).
      std::string key = rng.Chance(50) ? ".id" : ".name";
      std::string ret = " RETURN " + vars[0] + key + " AS g, count(*) AS c, " +
                        "sum(" + rng.Pick(vars) + ".v) AS s, min(" +
                        rng.Pick(vars) + ".w) AS mn";
      if (rng.Chance(60)) {
        ret += " ORDER BY g";
        out.ordered = true;
      }
      out.text = match + ret;
      break;
    }
    case 3: {
      // Intermediate-WITH merge sort (single fully-ordered column, so
      // the LIMIT-selected multiset is well-defined across executors).
      std::string with = " WITH " + rng.Pick(vars) + ".v AS v ORDER BY v" +
                         (rng.Chance(30) ? " DESC" : "") + " LIMIT " +
                         std::to_string(1 + rng.Below(30));
      out.text = match + with +
                 " RETURN count(*) AS c, sum(v) AS s, min(v) AS mn";
      break;
    }
    default: {
      // Intermediate-WITH partitioned DISTINCT.
      std::string with = " WITH DISTINCT " + rng.Pick(vars) + ".v AS v";
      if (rng.Chance(40)) with += ", " + vars[0] + ".w AS w";
      out.text = match + with + " RETURN count(*) AS c, min(v) AS mn";
      break;
    }
  }
  return out;
}

TEST(Differential, RuntimesMatchTheOracle) {
  // GQLITE_BATCH_SIZE / GQLITE_THREADS (the sanitizer CI legs) reshape
  // the executor matrix rather than skip it: every pairing below is a
  // valid differential at ANY effective batch size or worker count —
  // only the share-of-parallel assertion at the end needs workers > 1.
  auto eff_threads = EffectiveNumThreads(4);
  ASSERT_TRUE(eff_threads.ok()) << eff_threads.status().ToString();

  GraphPtr graph = MakeDifferentialGraph(0xD1FFE2E47ULL);

  // The executor matrix. All engines share one read-only graph.
  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  Database oracle = testutil::OpenOn(graph, interp_opts);

  struct Runtime {
    const char* name;
    Database db;
  };
  std::vector<Runtime> runtimes;
  auto add_runtime = [&](const char* name, size_t batch, size_t threads) {
    EngineOptions opts;
    opts.batch_size = batch;
    opts.num_threads = threads;
    runtimes.push_back({name, testutil::OpenOn(graph, opts)});
  };
  add_runtime("batch1", 1, 1);
  add_runtime("batch1024", 1024, 1);
  add_runtime("parallel1", 1024, 1);
  add_runtime("parallel2", 1024, 2);
  add_runtime("parallel4", 1024, 4);
  const size_t kSerialBatched = 1;  // runtimes[1] is the volcano oracle

  Rng rng{0x5EEDED5EEDULL};
  const int kCases = 300;
  int executed = 0;
  int oracle_errors = 0;
  for (int i = 0; i < kCases; ++i) {
    GeneratedQuery q = GenerateQuery(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + q.text);
    auto want = oracle.Execute(q.text);
    std::optional<Table> volcano_ref;
    const Table* reference = nullptr;
    if (q.volcano_only) {
      // collect(): the serial batched runtime is the oracle (same plan =>
      // same row order feeding the list).
      auto volcano_want = runtimes[kSerialBatched].db.Execute(q.text);
      ASSERT_EQ(want.ok(), volcano_want.ok()) << q.text;
      if (!want.ok()) {
        ++oracle_errors;
        continue;
      }
      volcano_ref = std::move(volcano_want->table);
      reference = &*volcano_ref;
    }
    if (!q.volcano_only && !want.ok()) {
      // The oracle rejected the query (type error on some row, ...):
      // every runtime must reject it too — silently succeeding would
      // mean the runtimes disagree about evaluation semantics.
      ++oracle_errors;
      for (auto& rt : runtimes) {
        auto got = rt.db.Execute(q.text);
        EXPECT_FALSE(got.ok()) << rt.name << " accepted what the "
                               << "interpreter rejected: " << q.text;
      }
      continue;
    }
    if (reference == nullptr) reference = &want->table;
    ++executed;
    for (auto& rt : runtimes) {
      if (q.volcano_only && &rt == &runtimes[kSerialBatched]) continue;
      auto got = rt.db.Execute(q.text);
      ASSERT_TRUE(got.ok()) << rt.name << ": " << got.status().ToString();
      EXPECT_TRUE(reference->SameBag(got->table))
          << rt.name << " diverges\noracle:\n" << reference->ToString()
          << rt.name << ":\n" << got->table.ToString();
      if (q.ordered) {
        EXPECT_EQ(reference->ToString(), got->table.ToString())
            << rt.name << " ordered output is not byte-identical";
      }
    }
  }

  // The harness is only meaningful if it actually exercised the paths it
  // claims to pin: most cases run, and the parallel engines really took
  // the parallel runtime (not the serial fallback) for a healthy share.
  EXPECT_GE(executed, kCases * 9 / 10) << oracle_errors << " oracle errors";
  auto& par4 = runtimes[4];
  ASSERT_STREQ(par4.name, "parallel4");
  if (*eff_threads > 1) {
    EXPECT_GE(par4.db.engine().parallel_stats().queries,
              static_cast<uint64_t>(executed) / 2)
        << "most generated queries should hit the parallel runtime";
  }
}

TEST(Differential, ParallelBreakersMatchTheOracle) {
  // ISSUE 8: pin the parallel merge stages (parallel merge sort,
  // aggregation merge, partitioned DISTINCT) to the interpreter
  // oracle across every executor leg, byte-identically when ordered —
  // and prove the cases actually exercised the breaker paths instead of
  // quietly falling back to the serial drain.
  auto eff_threads = EffectiveNumThreads(4);
  ASSERT_TRUE(eff_threads.ok()) << eff_threads.status().ToString();

  GraphPtr graph = MakeDifferentialGraph(0xB2EA4E25ULL);
  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  Database oracle = testutil::OpenOn(graph, interp_opts);

  struct Runtime {
    const char* name;
    Database db;
  };
  std::vector<Runtime> runtimes;
  auto add_runtime = [&](const char* name, size_t batch, size_t threads) {
    EngineOptions opts;
    opts.batch_size = batch;
    opts.num_threads = threads;
    runtimes.push_back({name, testutil::OpenOn(graph, opts)});
  };
  add_runtime("batch1", 1, 1);
  add_runtime("batch1024", 1024, 1);
  add_runtime("parallel2", 1024, 2);
  add_runtime("parallel4", 1024, 4);

  Rng rng{0xB2EA4E2D1FFULL};
  const int kCases = 150;
  int executed = 0;
  for (int i = 0; i < kCases; ++i) {
    GeneratedQuery q = GenerateBreakerQuery(rng);
    SCOPED_TRACE("breaker case " + std::to_string(i) + ": " + q.text);
    auto want = oracle.Execute(q.text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ++executed;
    for (auto& rt : runtimes) {
      auto got = rt.db.Execute(q.text);
      ASSERT_TRUE(got.ok()) << rt.name << ": " << got.status().ToString();
      EXPECT_TRUE(want->table.SameBag(got->table))
          << rt.name << " diverges\noracle:\n" << want->table.ToString()
          << rt.name << ":\n" << got->table.ToString();
      if (q.ordered) {
        EXPECT_EQ(want->table.ToString(), got->table.ToString())
            << rt.name << " ordered output is not byte-identical";
      }
    }
  }

  // >= 50% of the cases must have taken a parallel BREAKER path (a merge
  // stage beyond plain concat) on the 4-worker engine — the generator
  // regressing into serial-fallback or concat-only shapes would hollow
  // out everything this test claims to pin.
  if (*eff_threads > 1) {
    CypherEngine::ParallelStats ps =
        runtimes.back().db.engine().parallel_stats();
    uint64_t breaker_runs =
        ps.sort_merges + ps.agg_merges + ps.distinct_merges;
    EXPECT_GE(breaker_runs, static_cast<uint64_t>(executed) / 2)
        << "sort=" << ps.sort_merges << " agg=" << ps.agg_merges
        << " distinct=" << ps.distinct_merges << " of " << executed;
  }
}

}  // namespace
}  // namespace gqlite
