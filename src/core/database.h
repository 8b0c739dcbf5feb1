#ifndef GQLITE_CORE_DATABASE_H_
#define GQLITE_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/core/engine.h"
#include "src/core/session.h"

namespace gqlite {

/// The public entry point of gqlite: a database handle that owns the
/// query engine and decides where the data lives.
///
/// ```
/// GQL_ASSIGN_OR_RETURN(Database db, Database::Open("/path/to/db"));
/// db.Execute("CREATE (:Person {name: 'Ada'})");  // durable on return
/// auto result = db.Execute("MATCH (p:Person) RETURN p.name");
/// db.Checkpoint();  // fold the log into a fast-loading baseline
/// ```
///
/// Open(path) backs the database with a directory: every committed
/// write is appended to a write-ahead log and fsync'd before the call
/// returns, and reopening the same path recovers the exact committed
/// state (latest checkpoint plus WAL replay; torn tails from a crash
/// are discarded). OpenInMemory() keeps everything in RAM — same API,
/// no files, Checkpoint() a no-op — and optionally starts from a
/// caller-built graph, the in-memory counterpart of recovery.
///
/// The default graph changes only through updating statements
/// (Execute, or a Session write transaction). Snapshot() is the
/// read-only view of its committed state.
///
/// The engine underneath (CypherEngine) is the private implementation:
/// sessions, transactions, plan caching and parallel execution all
/// behave exactly as documented there. Only a Database builds one, with
/// its options (environment overrides applied) and storage fixed for
/// its lifetime; engine() exposes it for introspection (options,
/// catalog, plan cache, execution counters).
///
/// A Database is movable, not copyable. Destruction closes it; call
/// Close() explicitly to observe its status. The Database must outlive
/// every Session it created.
class Database {
 public:
  /// Opens (creating on first use) a durable database rooted at the
  /// directory `path` and recovers its committed state. A garbage
  /// GQLITE_BATCH_SIZE / GQLITE_THREADS override fails the open before
  /// the directory is touched.
  static Result<Database> Open(const std::string& path,
                               EngineOptions options = {});
  /// Opens a database with no persistence at all. `initial` is the
  /// starting default graph (an empty one when null); the database owns
  /// it from here on — later writes go through statements, not through
  /// the caller's pointer. A frozen `initial` (a PropertyGraph::Snapshot)
  /// is served to reads without a copy and makes the database
  /// read-only.
  static Result<Database> OpenInMemory(EngineOptions options = {},
                                       GraphPtr initial = nullptr);

  Database(Database&&) noexcept = default;
  /// Move-assignment closes the database being replaced first (same
  /// best-effort flush as the destructor; use Close() beforehand to
  /// observe its status).
  Database& operator=(Database&& other) noexcept {
    if (this != &other) {
      (void)Close();
      engine_ = std::move(other.engine_);
    }
    return *this;
  }
  ~Database();

  /// Opens a session for multi-statement transactions (see Session).
  std::unique_ptr<Session> CreateSession() { return engine_->CreateSession(); }

  /// Parses, validates and runs a statement (auto-commit: an updating
  /// statement is durable when the call returns OK).
  Result<QueryResult> Execute(std::string_view query,
                              const ValueMap& params = {}) {
    return engine_->Execute(query, params);
  }
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const ValueMap& params = {}) {
    return engine_->Execute(prepared, params);
  }
  /// Parses, validates and auto-parameterizes a statement without
  /// running it.
  Result<PreparedQuery> Prepare(std::string_view query) {
    return engine_->Prepare(query);
  }
  /// Renders the physical plan for a read query.
  Result<std::string> Explain(std::string_view query,
                              const ValueMap& params = {}) {
    return engine_->Explain(query, params);
  }
  /// Executes a read query and renders the plan with row counters.
  Result<std::string> Profile(std::string_view query,
                              const ValueMap& params = {}) {
    return engine_->Profile(query, params);
  }

  /// Registers a named graph in the catalog (`FROM GRAPH name ...`).
  /// Named graphs are NOT persisted — only the default graph is WAL-
  /// backed; re-register them after reopening.
  void RegisterGraph(const std::string& name, GraphPtr g) {
    engine_->catalog().RegisterGraph(name, std::move(g));
  }
  /// Registers a graph under an external URL (FROM GRAPH ... AT "url").
  /// Like named graphs, URL bindings are not persisted.
  void RegisterUrl(const std::string& url, GraphPtr g) {
    engine_->catalog().RegisterUrl(url, std::move(g));
  }

  /// Serializes the committed state as a new recovery baseline and
  /// truncates the write-ahead log, making the next Open load the
  /// checkpoint instead of replaying history. No-op in memory.
  Status Checkpoint() { return engine_->Checkpoint(); }
  /// Flushes and closes the storage layer; later writes fail. The
  /// handle stays valid for reads of the in-memory state.
  Status Close();

  /// The engine underneath — introspection (options, catalog, plan
  /// cache, execution counters).
  CypherEngine& engine() { return *engine_; }
  /// The committed state of the default graph as a frozen snapshot:
  /// later commits never change it. For inspection (counts, printing
  /// results).
  std::shared_ptr<const PropertyGraph> Snapshot() const {
    return engine_->Snapshot();
  }

 private:
  explicit Database(std::unique_ptr<CypherEngine> engine)
      : engine_(std::move(engine)) {}
  /// Recovers the starting graph from `storage` and builds the engine
  /// over it; `options` carry their environment overrides already.
  static Result<Database> Bind(const EngineOptions& options,
                               std::unique_ptr<StorageEngine> storage);

  std::unique_ptr<CypherEngine> engine_;
};

}  // namespace gqlite

#endif  // GQLITE_CORE_DATABASE_H_
