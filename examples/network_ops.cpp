// Network & IT operations (§3 industry example 1): services, dependencies
// and impact analysis over a layered data-center model. The headline query
// finds the component the most other services transitively depend on.

#include <iostream>

#include "fixtures/generators.h"
#include "src/core/database.h"

using namespace gqlite;

int main() {
  workload::DependencyConfig cfg;
  cfg.layers = 4;
  cfg.per_layer = 40;
  cfg.fanout = 3;
  GraphPtr net = workload::MakeDependencyNetwork(cfg);

  auto opened = Database::OpenInMemory();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);
  db.RegisterGraph("datacenter", net);
  std::cout << "Dependency graph: " << net->NumNodes() << " services, "
            << net->NumRels() << " dependencies\n\n";

  // The paper's network-management query: most depended-upon component.
  auto critical = db.Execute(
      "FROM GRAPH datacenter "
      "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) "
      "RETURN svc.name AS service, count(DISTINCT dep) AS dependents "
      "ORDER BY dependents DESC "
      "LIMIT 1");
  if (!critical.ok()) {
    std::cerr << critical.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Most critical component (everything that transitively "
               "depends on it):\n"
            << critical->table.ToString() << "\n";

  // Impact analysis: what would an outage of that component take down,
  // tier by tier?
  auto impact = db.Execute(
      "FROM GRAPH datacenter "
      "MATCH (core:Service {name: 'svc-0-0'})<-[:DEPENDS_ON*]-(dep) "
      "RETURN dep.tier AS tier, count(DISTINCT dep) AS affected "
      "ORDER BY tier");
  if (impact.ok()) {
    std::cout << "Blast radius of svc-0-0 by tier:\n"
              << impact->table.ToString() << "\n";
  }

  // Shortest dependency chains from the top tier to the core (path length
  // distribution via variable-length matching).
  auto chains = db.Execute(
      "FROM GRAPH datacenter "
      "MATCH (top:Service {tier: 3})-[deps:DEPENDS_ON*1..4]->"
      "(core:Service {name: 'svc-0-0'}) "
      "RETURN size(deps) AS chainLength, count(*) AS chains "
      "ORDER BY chainLength");
  if (chains.ok()) {
    std::cout << "Dependency chains from tier 3 to the core:\n"
              << chains->table.ToString() << "\n";
  }

  // Redundancy check: services depending on a single tier-below service
  // are single-point-of-failure candidates.
  auto spof = db.Execute(
      "FROM GRAPH datacenter "
      "MATCH (s:Service)-[:DEPENDS_ON]->(d:Service) "
      "WITH s, count(DISTINCT d) AS deps WHERE deps = 1 "
      "RETURN count(s) AS singleDependencyServices");
  if (spof.ok()) {
    std::cout << "Services with a single dependency:\n"
              << spof->table.ToString() << "\n";
  }
  return 0;
}
