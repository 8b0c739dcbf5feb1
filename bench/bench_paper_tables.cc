// Experiments E1–E6 (README.md): regenerates every table the paper prints
// for the §3 worked example — Figure 2a, Figure 2b, the two inline
// binding tables, and the final result — and checks them cell by cell
// against the paper. Exits non-zero on any mismatch.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"

namespace gqlite {
namespace {

using bench::CheckTable;

Table MakeExpected(std::vector<std::string> fields,
                   std::vector<ValueList> rows) {
  Table t(std::move(fields));
  for (auto& r : rows) t.AddRow(std::move(r));
  return t;
}

int RunAll() {
  workload::PaperFigure1 fig = workload::MakePaperFigure1Graph();
  auto N = [&](int i) { return Value::Node(fig.n[i]); };
  Database db = bench::MakeDatabase(fig.graph);

  bool all_ok = true;

  // E1: the graph itself.
  std::printf("[%s] E1 Figure 1 graph (10 nodes, 11 relationships)\n",
              fig.graph->NumNodes() == 10 && fig.graph->NumRels() == 11
                  ? "OK"
                  : "MISMATCH");
  all_ok &= fig.graph->NumNodes() == 10 && fig.graph->NumRels() == 11;

  // E2: Figure 2a — bindings after OPTIONAL MATCH line 2.
  {
    Table got = bench::MustRun(
        db,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) RETURN r, s");
    Table want = MakeExpected({"r", "s"}, {{N(1), Value::Null()},
                                           {N(6), N(7)},
                                           {N(6), N(8)},
                                           {N(10), N(7)}});
    all_ok &= CheckTable("E2 Figure 2a (r x s bindings)", got, want);
    std::printf("%s\n", got.ToString(fig.graph.get()).c_str());
  }

  // E3: Figure 2b — WITH aggregation.
  {
    Table got = bench::MustRun(
        db,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
        "WITH r, count(s) AS studentsSupervised "
        "RETURN r, studentsSupervised");
    Table want = MakeExpected({"r", "studentsSupervised"},
                              {{N(1), Value::Int(0)},
                               {N(6), Value::Int(2)},
                               {N(10), Value::Int(1)}});
    all_ok &= CheckTable("E3 Figure 2b (WITH r, count(s))", got, want);
    std::printf("%s\n", got.ToString(fig.graph.get()).c_str());
  }

  // E4: inline table after MATCH line 4 (Thor drops out).
  {
    Table got = bench::MustRun(
        db,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
        "WITH r, count(s) AS studentsSupervised "
        "MATCH (r)-[:AUTHORS]->(p1:Publication) "
        "RETURN r, studentsSupervised, p1");
    Table want = MakeExpected({"r", "studentsSupervised", "p1"},
                              {{N(1), Value::Int(0), N(2)},
                               {N(6), Value::Int(2), N(5)},
                               {N(6), Value::Int(2), N(9)}});
    all_ok &= CheckTable("E4 inline table after MATCH line 4", got, want);
  }

  // E5: inline table after OPTIONAL MATCH line 5, with the two identical
  // dagger rows (bag semantics of the variable-length CITES*).
  {
    Table got = bench::MustRun(
        db,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
        "WITH r, count(s) AS studentsSupervised "
        "MATCH (r)-[:AUTHORS]->(p1:Publication) "
        "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
        "RETURN r, studentsSupervised, p1, p2");
    Table want = MakeExpected(
        {"r", "studentsSupervised", "p1", "p2"},
        {{N(1), Value::Int(0), N(2), N(4)},
         {N(1), Value::Int(0), N(2), N(9)},   // † row 1
         {N(1), Value::Int(0), N(2), N(5)},
         {N(1), Value::Int(0), N(2), N(9)},   // † row 2
         {N(6), Value::Int(2), N(5), N(9)},
         {N(6), Value::Int(2), N(9), Value::Null()}});
    all_ok &= CheckTable("E5 inline table after line 5 (with daggers)", got,
                         want);
    std::printf("%s\n", got.ToString(fig.graph.get()).c_str());
  }

  // E6: the final RETURN table.
  {
    Table got = bench::MustRun(
        db,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
        "WITH r, count(s) AS studentsSupervised "
        "MATCH (r)-[:AUTHORS]->(p1:Publication) "
        "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
        "RETURN r.name, studentsSupervised, "
        "count(DISTINCT p2) AS citedCount");
    Table want = MakeExpected(
        {"r.name", "studentsSupervised", "citedCount"},
        {{Value::String("Nils"), Value::Int(0), Value::Int(3)},
         {Value::String("Elin"), Value::Int(2), Value::Int(1)}});
    all_ok &= CheckTable("E6 final result (Nils 0 3 / Elin 2 1)", got, want);
    std::printf("%s\n", got.ToString().c_str());
  }

  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace gqlite

int main() { return gqlite::RunAll(); }
