// gqlsh — an interactive Cypher shell over a gqlite database.
//
//   ./build/examples/gqlsh              # in-memory, empty graph
//   ./build/examples/gqlsh --demo       # preloaded citation graph (Figure 1)
//   ./build/examples/gqlsh --db <dir>   # durable database rooted at <dir>
//
// With --db, every committed write is appended to <dir>/wal.log before
// the prompt returns, and restarting the shell on the same directory
// recovers the exact committed state.
//
// Meta commands:
//   :explain <query>   show the Volcano plan
//   :profile <query>   run and show per-operator row counts
//   :stats             graph summary
//   :checkpoint        fold the WAL into a fast-loading baseline (--db)
//   :mode interp|volcano
//   :quit

#include <iostream>
#include <memory>
#include <string>

#include "fixtures/paper_graphs.h"
#include "src/core/database.h"

using namespace gqlite;

namespace {

void PrintStats(Database& db) {
  std::shared_ptr<const PropertyGraph> snapshot = db.Snapshot();
  const PropertyGraph& g = *snapshot;
  CypherEngine& engine = db.engine();
  std::cout << g.NumNodes() << " nodes, " << g.NumRels()
            << " relationships\n";
  for (const auto& [label_id, count] : g.LabelCounts()) {
    if (count > 0) {
      std::cout << "  :" << g.labels().ToString(label_id) << " x" << count
                << "\n";
    }
  }
  const PlanCacheStats& pc = engine.plan_cache_stats();
  std::cout << "plan cache: " << engine.plan_cache().size() << "/"
            << engine.plan_cache().capacity() << " entries, " << pc.hits
            << " hits, " << pc.misses << " misses, " << pc.evictions
            << " evictions, " << pc.invalidations << " invalidations\n";
  const BatchStats& ex = engine.exec_stats();
  std::cout << "execution: " << engine.exec_queries() << " queries, "
            << ex.rows << " rows in " << ex.batches << " batches (morsel size "
            << engine.options().batch_size;
  if (ex.batches > 0) {
    std::cout << ", avg " << (ex.rows / ex.batches) << " rows/batch";
  }
  std::cout << ")\n";
  const auto& par = engine.parallel_stats();
  std::cout << "parallel: " << engine.options().num_threads << " workers, "
            << par.queries << " parallel queries, " << par.morsels
            << " scan morsels dispatched\n";
  std::cout << "parallel merges: " << par.sort_merges << " sort, "
            << par.agg_merges << " aggregation, "
            << par.distinct_merges << " partitioned DISTINCT\n";
  if (!par.serial_reasons.empty()) {
    std::cout << "serial fallbacks:\n";
    for (const auto& [reason, count] : par.serial_reasons) {
      std::cout << "  " << count << "x " << reason << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  std::string db_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--db" && i + 1 < argc) {
      db_path = argv[++i];
    } else {
      std::cerr << "usage: gqlsh [--demo] [--db <dir>]\n";
      return 2;
    }
  }

  auto opened = db_path.empty() ? Database::OpenInMemory()
                                : Database::Open(db_path);
  if (!opened.ok()) {
    std::cerr << "open failed: " << opened.status().ToString() << "\n";
    return 1;
  }
  Database db = std::move(*opened);
  if (!db_path.empty()) {
    std::shared_ptr<const PropertyGraph> recovered = db.Snapshot();
    std::cout << "durable database at " << db_path << ": "
              << recovered->NumNodes() << " nodes, " << recovered->NumRels()
              << " relationships recovered\n";
  }

  if (demo) {
    // Load the paper's Figure 1 graph via Cypher so the shell starts with
    // something to explore.
    auto r = db.Execute(
        "CREATE (n1:Researcher {name: 'Nils'}), "
        "(n2:Publication {acmid: 220}), (n3:Publication {acmid: 190}), "
        "(n4:Publication {acmid: 235}), (n5:Publication {acmid: 240}), "
        "(n6:Researcher {name: 'Elin'}), (n7:Student {name: 'Sten'}), "
        "(n8:Student {name: 'Linda'}), (n9:Publication {acmid: 269}), "
        "(n10:Researcher {name: 'Thor'}), "
        "(n1)-[:AUTHORS]->(n2), (n2)-[:CITES]->(n3), (n4)-[:CITES]->(n2), "
        "(n5)-[:CITES]->(n2), (n6)-[:AUTHORS]->(n5), "
        "(n6)-[:SUPERVISES]->(n7), (n6)-[:SUPERVISES]->(n8), "
        "(n10)-[:SUPERVISES]->(n7), (n9)-[:CITES]->(n4), "
        "(n6)-[:AUTHORS]->(n9), (n9)-[:CITES]->(n5)");
    if (!r.ok()) {
      std::cerr << "demo load failed: " << r.status().ToString() << "\n";
      return 1;
    }
    std::cout << "loaded the paper's Figure 1 graph (" << r->stats.ToString()
              << ")\n";
  }

  std::cout << "gqlite shell — Cypher per Francis et al., SIGMOD 2018.\n"
               "Type a query, or :help.\n";
  std::string line;
  while (true) {
    std::cout << "gql> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line == ":quit" || line == ":exit") break;
    if (line == ":help") {
      std::cout << ":explain <q>  :profile <q>  :stats  :checkpoint  "
                   ":mode interp|volcano  :quit\n";
      continue;
    }
    if (line == ":stats") {
      PrintStats(db);
      continue;
    }
    if (line == ":checkpoint") {
      Status st = db.Checkpoint();
      if (!st.ok()) {
        std::cout << st.ToString() << "\n";
      } else if (db_path.empty()) {
        std::cout << "in-memory database; nothing to checkpoint\n";
      } else {
        std::cout << "checkpoint written; WAL truncated\n";
      }
      continue;
    }
    if (line.rfind(":mode", 0) == 0) {
      // Options are fixed when a database opens: reopen it in the new
      // mode, on the same directory or from the committed graph.
      EngineOptions opts = db.engine().options();
      bool interp = line.find("interp") != std::string::npos;
      opts.mode =
          interp ? ExecutionMode::kInterpreter : ExecutionMode::kVolcano;
      if (!db_path.empty()) {
        Status closed = db.Close();
        if (!closed.ok()) {
          std::cout << closed.ToString() << "\n";
          continue;
        }
      }
      auto reopened =
          db_path.empty()
              ? Database::OpenInMemory(opts, db.Snapshot()->Clone())
              : Database::Open(db_path, opts);
      if (!reopened.ok()) {
        std::cout << reopened.status().ToString() << "\n";
        continue;
      }
      db = std::move(*reopened);
      std::cout << (interp ? "executing on the reference interpreter\n"
                           : "executing on the Volcano runtime\n");
      continue;
    }
    if (line.rfind(":explain ", 0) == 0) {
      auto plan = db.Explain(line.substr(9));
      std::cout << (plan.ok() ? *plan : plan.status().ToString() + "\n");
      continue;
    }
    if (line.rfind(":profile ", 0) == 0) {
      auto plan = db.Profile(line.substr(9));
      std::cout << (plan.ok() ? *plan : plan.status().ToString() + "\n");
      continue;
    }

    auto result = db.Execute(line);
    if (!result.ok()) {
      std::cout << result.status().ToString() << "\n";
      continue;
    }
    std::cout << result->ToString(db.Snapshot().get());
  }
  return 0;
}
