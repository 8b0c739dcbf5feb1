// Cypher 10 preview (§6): multiple named graphs, graph projection with
// RETURN GRAPH, and query composition — the paper's Example 6.1 run on a
// synthetic social network plus a citizen register.

#include <iostream>

#include "fixtures/generators.h"
#include "src/core/database.h"

using namespace gqlite;

int main() {
  auto opened = Database::OpenInMemory();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);

  // soc_net lives "at" an external URL (simulated by the catalog's URL
  // registry; see README, "Deliberate departures from the paper").
  workload::SocialConfig cfg;
  cfg.num_people = 300;
  cfg.avg_friends = 6;
  cfg.num_cities = 10;
  GraphPtr soc = workload::MakeSocialNetwork(cfg);
  db.RegisterUrl("hdfs://cluster/soc_network", soc);

  // The register graph: the same people, IN edges to cities (the social
  // generator already adds them, so reuse a second network as register).
  db.RegisterUrl("bolt://cluster/citizens", soc);

  std::cout << "soc_net: " << soc->NumNodes() << " nodes, " << soc->NumRels()
            << " relationships\n\n";

  // --- Example 6.1, first query: project a friend-sharing graph. ----------
  ValueMap params;
  params["duration"] = Value::Int(5);
  auto projected = db.Execute(
      "FROM GRAPH soc_net AT \"hdfs://cluster/soc_network\" "
      "MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b) "
      "WHERE abs(r2.since - r1.since) < $duration AND a.name < b.name "
      "WITH DISTINCT a, b "
      "RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)",
      params);
  if (!projected.ok()) {
    std::cerr << projected.status().ToString() << "\n";
    return 1;
  }
  GraphPtr friends = projected->graphs[0].second;
  std::cout << "projected graph `friends`: " << friends->NumNodes()
            << " nodes, " << friends->NumRels()
            << " SHARE_FRIEND relationships\n\n";

  // --- Example 6.1, composition: filter the projected graph against the
  // register (same-city pairs). Node identity does not transfer between
  // graphs, so the join goes through the `name` key. ----------------------
  auto composed = db.Execute(
      "QUERY GRAPH friends "
      "MATCH (a)-[:SHARE_FRIEND]-(b) "
      "WITH a.name AS an, b.name AS bn WHERE an < bn "
      "FROM GRAPH register AT \"bolt://cluster/citizens\" "
      "MATCH (a2:Person {name: an})-[:IN]->(c:City)<-[:IN]-"
      "(b2:Person {name: bn}) "
      "RETURN c.name AS city, count(*) AS friendSharingPairs "
      "ORDER BY friendSharingPairs DESC LIMIT 5");
  if (!composed.ok()) {
    std::cerr << composed.status().ToString() << "\n";
    return 1;
  }
  std::cout << "friend-sharing pairs living in the same city:\n"
            << composed->table.ToString() << "\n";

  // --- Named graphs are addressable afterwards too. -----------------------
  auto again = db.Execute(
      "FROM GRAPH friends MATCH (a)-[:SHARE_FRIEND]->(b) "
      "RETURN count(*) AS pairs");
  if (again.ok()) {
    std::cout << "re-querying `friends` by name:\n"
              << again->table.ToString() << "\n";
  }
  return 0;
}
