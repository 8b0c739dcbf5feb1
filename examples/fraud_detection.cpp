// Fraud-ring detection (§3 industry example 2): account holders sharing
// personal information (SSNs, phone numbers, addresses) form potential
// fraud rings. Runs the paper's query on a synthetic dataset and drills
// into the rings it finds.

#include <iostream>

#include "fixtures/generators.h"
#include "src/core/database.h"

using namespace gqlite;

int main() {
  workload::FraudConfig cfg;
  cfg.num_holders = 5000;
  cfg.num_rings = 12;
  cfg.ring_size = 4;
  GraphPtr data = workload::MakeFraudGraph(cfg);

  auto opened = Database::OpenInMemory();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);
  db.RegisterGraph("accounts", data);

  std::cout << "Account graph: " << data->NumNodes() << " nodes, "
            << data->NumRels() << " relationships\n\n";

  // The paper's fraud query (§3), with the fraudRingCount alias used in
  // the filter.
  auto rings = db.Execute(
      "FROM GRAPH accounts "
      "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo) "
      "WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address "
      "WITH pInfo, "
      "     collect(accHolder.uniqueId) AS accountHolders, "
      "     count(*) AS fraudRingCount "
      "WHERE fraudRingCount > 1 "
      "RETURN accountHolders, "
      "       labels(pInfo) AS personalInformation, "
      "       fraudRingCount "
      "ORDER BY fraudRingCount DESC, personalInformation");
  if (!rings.ok()) {
    std::cerr << rings.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Potential fraud rings (shared personal information):\n"
            << rings->table.ToString(data.get()) << "\n";

  // Ring sizes by information type.
  auto by_type = db.Execute(
      "FROM GRAPH accounts "
      "MATCH (h:AccountHolder)-[:HAS]->(pInfo) "
      "WITH pInfo, count(h) AS holders WHERE holders > 1 "
      "UNWIND labels(pInfo) AS kind "
      "RETURN kind, count(*) AS sharedItems, max(holders) AS largestRing "
      "ORDER BY kind");
  if (by_type.ok()) {
    std::cout << "Shared-information summary:\n"
              << by_type->table.ToString() << "\n";
  }

  // Second-degree exposure: holders connected to a flagged holder through
  // any shared information item.
  auto exposure = db.Execute(
      "FROM GRAPH accounts "
      "MATCH (a:AccountHolder)-[:HAS]->(p)<-[:HAS]-(b:AccountHolder) "
      "WHERE a.uniqueId < b.uniqueId "
      "RETURN count(*) AS linkedPairs");
  if (exposure.ok()) {
    std::cout << "Holder pairs linked through shared information:\n"
              << exposure->table.ToString() << "\n";
  }
  return 0;
}
