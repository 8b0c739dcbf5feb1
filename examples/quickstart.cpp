// Quickstart: open a database, create a small property graph with
// Cypher, query it, update it, and look at a query plan. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "src/core/database.h"

using gqlite::Database;
using gqlite::Value;
using gqlite::ValueMap;

namespace {

/// Runs a query and prints the rendered result (or the error).
void Run(Database& db, const char* query, const ValueMap& params = {}) {
  std::cout << "cypher> " << query << "\n";
  auto result = db.Execute(query, params);
  if (!result.ok()) {
    std::cout << "  " << result.status().ToString() << "\n\n";
    return;
  }
  std::cout << result->ToString(db.Snapshot().get()) << "\n";
}

}  // namespace

int main() {
  // In-memory database; Database::Open("/some/dir") instead makes every
  // committed write durable (WAL + checkpoints, crash recovery).
  auto opened = Database::OpenInMemory();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);

  // --- Create data (the update language of §2). --------------------------
  Run(db,
      "CREATE (ada:Person {name: 'Ada', born: 1815})-[:KNOWS {since: 1833}]->"
      "(charles:Person {name: 'Charles', born: 1791}), "
      "(ada)-[:LIKES]->(math:Topic {name: 'Mathematics'}), "
      "(charles)-[:LIKES]->(math)");

  // --- Pattern matching ("ASCII art", §2). --------------------------------
  Run(db,
      "MATCH (a:Person)-[:LIKES]->(t:Topic)<-[:LIKES]-(b:Person) "
      "WHERE a.name < b.name "
      "RETURN a.name, b.name, t.name AS sharedTopic");

  // --- Query parameters (§2: injection-safe by construction). ------------
  ValueMap params;
  params["name"] = Value::String("Ada");
  Run(db, "MATCH (p:Person {name: $name}) RETURN p.born", params);

  // --- Aggregation with implicit grouping (§3). ---------------------------
  Run(db,
      "MATCH (p:Person)-[:LIKES]->(t:Topic) "
      "RETURN t.name, count(p) AS fans, collect(p.name) AS names");

  // --- OPTIONAL MATCH and null handling. ----------------------------------
  Run(db,
      "MATCH (p:Person) OPTIONAL MATCH (p)-[:MENTORS]->(m) "
      "RETURN p.name, m");

  // --- Updates: MERGE is match-or-create. ---------------------------------
  Run(db,
      "MERGE (t:Topic {name: 'Mathematics'}) "
      "ON MATCH SET t.popular = true RETURN t");
  Run(db, "MATCH (p:Person {name: 'Ada'}) SET p.famous = true");
  Run(db, "MATCH (p:Person) RETURN p.name, p.famous");

  // --- EXPLAIN: the Volcano plan (§2 "Neo4j implementation"). -------------
  auto plan = db.Explain(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.born < 1800 "
      "RETURN a.name");
  if (plan.ok()) {
    std::cout << "EXPLAIN MATCH (a:Person)-[:KNOWS]->(b:Person) ...\n"
              << *plan << "\n";
  }

  // --- Temporal values (Cypher 10 preview, §6). ----------------------------
  Run(db,
      "RETURN date('1815-12-10') AS born, "
      "date('1815-12-10') + duration('P27Y') AS analyticalEngineEra");

  return 0;
}
