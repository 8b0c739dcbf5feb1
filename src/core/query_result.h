#ifndef GQLITE_CORE_QUERY_RESULT_H_
#define GQLITE_CORE_QUERY_RESULT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph_catalog.h"
#include "src/interp/table.h"
#include "src/update/update_executor.h"

namespace gqlite {

/// Result of Database::Execute: the output table, update counters for
/// updating queries, and any graphs produced by RETURN GRAPH (the
/// "table-graphs" result of §6).
struct QueryResult {
  Table table;
  UpdateStats stats;
  std::vector<std::pair<std::string, GraphPtr>> graphs;

  /// Pretty-prints the table (graph-aware when `graph` is supplied) and
  /// the update summary.
  std::string ToString(const PropertyGraph* graph = nullptr) const;
};

}  // namespace gqlite

#endif  // GQLITE_CORE_QUERY_RESULT_H_
