#ifndef GQLITE_FIXTURES_PAPER_GRAPHS_H_
#define GQLITE_FIXTURES_PAPER_GRAPHS_H_

#include "src/graph/graph_catalog.h"

namespace gqlite {
namespace workload {

/// The paper's Figure 1 data graph (researchers, students, publications,
/// supervision and citation data), with the exact node/relationship
/// numbering of the paper: `n[1]`..`n[10]` and `r[1]`..`r[11]` (index 0
/// unused). Labels follow Figure 1 / the §3 walkthrough (Example 4.1 in
/// the paper contains a label-swap erratum; see README, "Deliberate
/// departures from the paper"). Relationship types are uppercase
/// (AUTHORS, SUPERVISES, CITES) as used by the paper's queries.
struct PaperFigure1 {
  GraphPtr graph;
  NodeId n[11];
  RelId r[12];
};
PaperFigure1 MakePaperFigure1Graph();

/// The paper's Figure 4 graph (teachers/students, KNOWS chain):
/// n1:Teacher -r1-> n2:Student -r2-> n3:Teacher -r3-> n4:Teacher.
struct PaperFigure4 {
  GraphPtr graph;
  NodeId n[5];
  RelId r[4];
};
PaperFigure4 MakePaperFigure4Graph();

/// The §4.2 complexity example: a single node with a single self-loop
/// relationship. Under Cypher's relationship-isomorphism semantics the
/// pattern (x)-[*0..]->(x) has exactly two matches here.
struct SelfLoop {
  GraphPtr graph;
  NodeId node;
  RelId rel;
};
SelfLoop MakeSelfLoopGraph();

}  // namespace workload
}  // namespace gqlite

#endif  // GQLITE_FIXTURES_PAPER_GRAPHS_H_
