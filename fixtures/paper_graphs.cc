#include "fixtures/paper_graphs.h"

namespace gqlite {
namespace workload {

PaperFigure1 MakePaperFigure1Graph() {
  PaperFigure1 out;
  out.graph = std::make_shared<PropertyGraph>();
  PropertyGraph& g = *out.graph;

  auto name = [](const char* v) {
    return PropertyList{{"name", Value::String(v)}};
  };
  auto acmid = [](int64_t v) {
    return PropertyList{{"acmid", Value::Int(v)}};
  };

  out.n[1] = g.CreateNode({"Researcher"}, name("Nils"));
  out.n[2] = g.CreateNode({"Publication"}, acmid(220));
  out.n[3] = g.CreateNode({"Publication"}, acmid(190));
  out.n[4] = g.CreateNode({"Publication"}, acmid(235));
  out.n[5] = g.CreateNode({"Publication"}, acmid(240));
  out.n[6] = g.CreateNode({"Researcher"}, name("Elin"));
  out.n[7] = g.CreateNode({"Student"}, name("Sten"));
  out.n[8] = g.CreateNode({"Student"}, name("Linda"));
  out.n[9] = g.CreateNode({"Publication"}, acmid(269));
  out.n[10] = g.CreateNode({"Researcher"}, name("Thor"));

  // src/tgt per Example 4.1 (and consistent with the §3 walkthrough).
  auto rel = [&](int i, int s, int t, const char* type) {
    out.r[i] = g.CreateRelationship(out.n[s], out.n[t], type).value();
  };
  rel(1, 1, 2, "AUTHORS");
  rel(2, 2, 3, "CITES");
  rel(3, 4, 2, "CITES");
  rel(4, 5, 2, "CITES");
  rel(5, 6, 5, "AUTHORS");
  rel(6, 6, 7, "SUPERVISES");
  rel(7, 6, 8, "SUPERVISES");
  rel(8, 10, 7, "SUPERVISES");
  rel(9, 9, 4, "CITES");
  rel(10, 6, 9, "AUTHORS");
  rel(11, 9, 5, "CITES");
  return out;
}

PaperFigure4 MakePaperFigure4Graph() {
  PaperFigure4 out;
  out.graph = std::make_shared<PropertyGraph>();
  PropertyGraph& g = *out.graph;
  out.n[1] = g.CreateNode({"Teacher"});
  out.n[2] = g.CreateNode({"Student"});
  out.n[3] = g.CreateNode({"Teacher"});
  out.n[4] = g.CreateNode({"Teacher"});
  out.r[1] = g.CreateRelationship(out.n[1], out.n[2], "KNOWS").value();
  out.r[2] = g.CreateRelationship(out.n[2], out.n[3], "KNOWS").value();
  out.r[3] = g.CreateRelationship(out.n[3], out.n[4], "KNOWS").value();
  return out;
}

SelfLoop MakeSelfLoopGraph() {
  SelfLoop out;
  out.graph = std::make_shared<PropertyGraph>();
  out.node = out.graph->CreateNode({"Node"});
  out.rel = out.graph->CreateRelationship(out.node, out.node, "LOOP").value();
  return out;
}

}  // namespace workload
}  // namespace gqlite
