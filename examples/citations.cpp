// Citation analysis on the paper's own Figure 1 graph and on a larger
// synthetic citation network: reproduces the §3 worked example end to end
// (the query whose intermediate tables the paper prints) and extends it
// with h-index-style analytics.

#include <iostream>

#include "fixtures/generators.h"
#include "fixtures/paper_graphs.h"
#include "src/core/database.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"

using namespace gqlite;  // example code; the library is namespaced

namespace {

void RunOn(GraphPtr graph, const char* query) {
  std::cout << "cypher> " << query << "\n";
  // Point the database at the prebuilt graph via the catalog: FROM GRAPH
  // selects it (Cypher 10).
  auto db = Database::OpenInMemory();
  if (!db.ok()) {
    std::cout << "  " << db.status().ToString() << "\n\n";
    return;
  }
  db->RegisterGraph("paper", graph);
  auto result = db->Execute(std::string("FROM GRAPH paper ") + query);
  if (!result.ok()) {
    std::cout << "  " << result.status().ToString() << "\n\n";
    return;
  }
  std::cout << result->table.ToString(graph.get()) << "\n";
}

}  // namespace

int main() {
  // ---- The paper's Figure 1 graph -----------------------------------------
  workload::PaperFigure1 fig = workload::MakePaperFigure1Graph();
  std::cout << "=== Figure 1 graph: " << fig.graph->NumNodes()
            << " nodes, " << fig.graph->NumRels() << " relationships ===\n\n";

  // The §3 worked example: supervision counts and transitive citations.
  RunOn(fig.graph,
        "MATCH (r:Researcher) "
        "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
        "WITH r, count(s) AS studentsSupervised "
        "MATCH (r)-[:AUTHORS]->(p1:Publication) "
        "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
        "RETURN r.name, studentsSupervised, "
        "count(DISTINCT p2) AS citedCount");

  // Direct citations per publication.
  RunOn(fig.graph,
        "MATCH (p:Publication) OPTIONAL MATCH (p)<-[:CITES]-(citing) "
        "RETURN p.acmid, count(citing) AS directCitations "
        "ORDER BY directCitations DESC, p.acmid");

  // Citation chains as paths.
  RunOn(fig.graph,
        "MATCH (a:Publication)-[cs:CITES*2..3]->(b:Publication) "
        "RETURN a.acmid, size(cs) AS chainLength, b.acmid "
        "ORDER BY a.acmid, chainLength, b.acmid");

  // ---- A larger synthetic citation network --------------------------------
  workload::CitationConfig cfg;
  cfg.num_researchers = 200;
  cfg.pubs_per_researcher = 4;
  cfg.avg_cites_per_pub = 3.0;
  GraphPtr big = workload::MakeCitationGraph(cfg);
  std::cout << "=== Synthetic citation network: " << big->NumNodes()
            << " nodes, " << big->NumRels() << " relationships ===\n\n";

  RunOn(big,
        "MATCH (r:Researcher)-[:AUTHORS]->(p:Publication) "
        "OPTIONAL MATCH (p)<-[:CITES]-(c:Publication) "
        "WITH r, p, count(c) AS cites "
        "WITH r, collect(cites) AS perPaper, sum(cites) AS total "
        "RETURN r.name, size(perPaper) AS papers, total "
        "ORDER BY total DESC LIMIT 5");

  RunOn(big,
        "MATCH (p:Publication) WHERE NOT (p)<-[:CITES]-() "
        "RETURN count(p) AS uncitedPublications");

  return 0;
}
