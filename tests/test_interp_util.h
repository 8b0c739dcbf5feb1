#ifndef GQLITE_TESTS_TEST_INTERP_UTIL_H_
#define GQLITE_TESTS_TEST_INTERP_UTIL_H_

#include <string>

#include "src/frontend/analyzer.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"
#include "src/update/update_executor.h"

namespace gqlite {
namespace testutil {

/// Runs a query through the reference interpreter on `graph` (tests use
/// this before the full engine facade; the engine wraps the same pieces).
inline Result<Table> RunInterp(GraphPtr graph, const std::string& query,
                               ValueMap params = {},
                               MatchOptions match_opts = {}) {
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  (void)info;
  GraphCatalog catalog;
  uint64_t rand_state = 0xC0FFEE;
  Interpreter::Options opts;
  opts.match = match_opts;
  Interpreter interp(&catalog, graph, &params, opts, &rand_state);
  UpdateStats stats;
  interp.set_update_handler([&](const ast::Clause& c,
                                Table t) -> Result<Table> {
    UpdateExecutor upd(interp.current_graph().get(), &params, match_opts,
                       &rand_state, &stats);
    return upd.Execute(c, std::move(t));
  });
  return interp.ExecuteQuery(q);
}

/// Builds the expected table from fields and rows for SameBag comparisons.
inline Table MakeTable(std::vector<std::string> fields,
                       std::vector<ValueList> rows) {
  Table t(std::move(fields));
  for (auto& r : rows) t.AddRow(std::move(r));
  return t;
}

}  // namespace testutil
}  // namespace gqlite

#endif  // GQLITE_TESTS_TEST_INTERP_UTIL_H_
