// Experiments E9–E12 (README.md): the formal-semantics examples of §4 on
// the Figure 4 graph — rigid satisfaction (Examples 4.2/4.3),
// variable-length satisfaction and bag multiplicity (4.4/4.5), the
// driving-table semantics of Example 4.6, and the §4.2 self-loop
// complexity example. Exits non-zero on mismatch with the paper.

#include <cstdio>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

Table MakeExpected(std::vector<std::string> fields,
                   std::vector<ValueList> rows) {
  Table t(std::move(fields));
  for (auto& r : rows) t.AddRow(std::move(r));
  return t;
}

int RunAll() {
  workload::PaperFigure4 fig = workload::MakePaperFigure4Graph();
  auto N = [&](int i) { return Value::Node(fig.n[i]); };
  Database db = bench::MakeDatabase(fig.graph);
  bool ok = true;

  // E9 / Example 4.2: (x:Teacher) satisfied by n1, n3, n4; (y) by all.
  {
    Table got = bench::MustRun(db, "MATCH (x:Teacher) RETURN x");
    ok &= bench::CheckTable("E9 Example 4.2 (x:Teacher)", got,
                            MakeExpected({"x"}, {{N(1)}, {N(3)}, {N(4)}}));
  }

  // E9 / Example 4.3: (x:Teacher)-[:KNOWS*2]->(y) — exactly p = n1 r1 n2
  // r2 n3 under assignment x=n1, y=n3.
  {
    Table got = bench::MustRun(
        db, "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y");
    ok &= bench::CheckTable("E9 Example 4.3 (rigid *2)", got,
                            MakeExpected({"x", "y"}, {{N(1), N(3)}}));
  }

  // E10 / Example 4.4: variable-length with named middle node.
  {
    Table got = bench::MustRun(
        db,
        "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) "
        "RETURN x, z, y");
    ok &= bench::CheckTable(
        "E10 Example 4.4 (p1 under u1; p2 under u2 and u2')", got,
        MakeExpected({"x", "z", "y"}, {{N(1), N(2), N(3)},
                                       {N(1), N(2), N(4)},
                                       {N(1), N(3), N(4)}}));
  }

  // E10 / Example 4.5: anonymous middle node — the path n1..n4 satisfies
  // the pattern under TWO rigid refinements: two copies of (n1, n4).
  {
    Table got = bench::MustRun(
        db,
        "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) "
        "RETURN x, y");
    ok &= bench::CheckTable(
        "E10 Example 4.5 (two copies of u — bag semantics)", got,
        MakeExpected({"x", "y"},
                     {{N(1), N(3)}, {N(1), N(4)}, {N(1), N(4)}}));
  }

  // E11 / Example 4.6: [[MATCH (x)-[:KNOWS*]->(y)]] over T = {(x:n1),
  // (x:n3)} — four rows.
  {
    Table got = bench::MustRun(
        db,
        "MATCH (x) WHERE id(x) IN [0, 2] "
        "MATCH (x)-[:KNOWS*]->(y) RETURN x, y");
    ok &= bench::CheckTable(
        "E11 Example 4.6 (driving-table semantics)", got,
        MakeExpected({"x", "y"}, {{N(1), N(2)},
                                  {N(1), N(3)},
                                  {N(1), N(4)},
                                  {N(3), N(4)}}));
  }

  // E12 / §4.2 complexity example: single node with a self-loop;
  // (x)-[*0..]->(x) returns exactly two matches under relationship
  // isomorphism ("two matches will be returned: one for traversing the
  // unique edge zero times, one for traversing it a single time").
  {
    workload::SelfLoop loop = workload::MakeSelfLoopGraph();
    Database loop_engine = bench::MakeDatabase(loop.graph);
    Table got =
        bench::MustRun(loop_engine, "MATCH (x)-[*0..]->(x) RETURN x");
    bool two = got.NumRows() == 2;
    std::printf("[%s] E12 self-loop (x)-[*0..]->(x): %zu matches "
                "(paper: 2)\n",
                two ? "OK" : "MISMATCH", got.NumRows());
    ok &= two;
  }

  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gqlite

int main() { return gqlite::RunAll(); }
