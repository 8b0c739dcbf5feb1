#ifndef GQLITE_TESTS_TEST_DB_UTIL_H_
#define GQLITE_TESTS_TEST_DB_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/core/database.h"

namespace gqlite {
namespace testutil {

/// Opens an in-memory database whose default graph starts as `graph`:
/// fixtures bind their data at open, the way durable recovery binds the
/// recovered graph. Aborts on failure — no caller can go on without
/// the database.
inline Database OpenOn(GraphPtr graph, EngineOptions opts = {}) {
  Result<Database> db = Database::OpenInMemory(opts, std::move(graph));
  if (!db.ok()) {
    std::fprintf(stderr, "OpenInMemory failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  return std::move(*db);
}

}  // namespace testutil
}  // namespace gqlite

#endif  // GQLITE_TESTS_TEST_DB_UTIL_H_
