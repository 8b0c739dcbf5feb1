// Graph analytics in Cypher: the questions a graph-algorithm library is
// usually asked for, written as queries over the public Database API —
// the most-cited publications of a citation network, the shortest
// dependency chain in a data-center network (a variable-length pattern
// ordered by path length), and a triangle count and degree histogram of
// a social graph.

#include <iostream>
#include <string>

#include "fixtures/generators.h"
#include "src/core/database.h"

using namespace gqlite;  // example code; the library is namespaced

namespace {

bool Run(Database& db, const std::string& title, const std::string& query) {
  std::cout << title << "\ncypher> " << query << "\n";
  auto result = db.Execute(query);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return false;
  }
  std::cout << result->table.ToString() << "\n";
  return true;
}

}  // namespace

int main() {
  auto opened = Database::OpenInMemory();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);

  workload::CitationConfig ccfg;
  ccfg.num_researchers = 120;
  ccfg.pubs_per_researcher = 3;
  ccfg.avg_cites_per_pub = 2.5;
  db.RegisterGraph("cites", workload::MakeCitationGraph(ccfg));

  workload::DependencyConfig dcfg;
  dcfg.layers = 4;
  dcfg.per_layer = 20;
  dcfg.fanout = 2;
  db.RegisterGraph("deps", workload::MakeDependencyNetwork(dcfg));

  workload::SocialConfig scfg;
  scfg.num_people = 400;
  scfg.avg_friends = 6;
  db.RegisterGraph("social", workload::MakeSocialNetwork(scfg));

  bool ok =
      Run(db, "Top publications by direct citations:",
          "FROM GRAPH cites MATCH (p:Publication)<-[:CITES]-(q) "
          "RETURN p.acmid AS acmid, count(q) AS cites "
          "ORDER BY cites DESC, acmid LIMIT 5") &&
      // Every path from tier 3 down to the core service svc-0-0; the
      // first one by length is a shortest dependency chain.
      Run(db, "Shortest dependency chain from svc-3-5 to the core:",
          "FROM GRAPH deps "
          "MATCH p = (:Service {name: 'svc-3-5'})-[:DEPENDS_ON*]->"
          "(:Service {name: 'svc-0-0'}) "
          "RETURN length(p) AS hops, [n IN nodes(p) | n.name] AS chain "
          "ORDER BY hops, chain LIMIT 1") &&
      // Each undirected FRIEND triangle once: its members in id order,
      // and DISTINCT folds parallel FRIEND edges between the same pair.
      Run(db, "Triangles (friend-of-a-friend closures):",
          "FROM GRAPH social "
          "MATCH (a:Person)-[:FRIEND]-(b:Person)-[:FRIEND]-(c:Person)"
          "-[:FRIEND]-(a) "
          "WHERE id(a) < id(b) AND id(b) < id(c) "
          "WITH DISTINCT a, b, c RETURN count(*) AS triangles") &&
      Run(db, "Degree histogram (FRIEND relationships per person):",
          "FROM GRAPH social MATCH (n:Person) "
          "OPTIONAL MATCH (n)-[f:FRIEND]-() "
          "WITH n, count(f) AS degree "
          "RETURN degree, count(*) AS people ORDER BY degree");
  return ok ? 0 : 1;
}
