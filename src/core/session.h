#ifndef GQLITE_CORE_SESSION_H_
#define GQLITE_CORE_SESSION_H_

#include <string_view>

#include "src/core/engine.h"

namespace gqlite {

/// Transaction mode of Session::Begin.
enum class TxnMode : uint8_t {
  /// Snapshot-isolated reads: every statement in the transaction sees
  /// the same committed state, regardless of concurrent commits.
  kRead,
  /// Exclusive write transaction on the engine's single-writer slot.
  kWrite,
};

/// A single-threaded conversation with a Database that can group
/// statements into explicit transactions (obtained via
/// Database::CreateSession; the database must outlive the session).
///
/// ```
/// auto session = db.CreateSession();
/// session->Begin(TxnMode::kRead);           // pin a snapshot
/// auto r1 = session->Execute("MATCH (n) RETURN count(n)");
/// auto r2 = session->Execute("MATCH (n) RETURN count(n)");  // same value
/// session->Commit();
/// ```
///
/// Isolation (MVCC, single writer):
///  * a kRead transaction pins the committed-state snapshot at Begin;
///    every statement until Commit/Rollback reads that snapshot, seeing
///    none of a concurrently committing writer's changes;
///  * a kWrite transaction takes the engine-wide writer slot at Begin
///    WITHOUT blocking — a second concurrent writer gets
///    Status::Conflict (code kConflict) and decides whether to retry.
///    Statements inside it read and write the live head (a transaction
///    sees its own writes); Commit publishes them to later snapshots,
///    Rollback restores the pre-Begin state;
///  * outside any transaction, Execute behaves exactly like
///    Database::Execute — per-statement auto-commit (writes WAIT for
///    the writer slot instead of surfacing a conflict).
///
/// The default-graph binding is pinned at Begin (and per statement in
/// auto-commit): another session's rollback, which replaces the live
/// head, never rebinds a transaction mid-flight. QueryResult tables are
/// plain values and stay valid after Commit/Rollback and after the
/// session is destroyed.
///
/// A Session object itself is single-threaded (not locked); concurrency
/// comes from many sessions on many threads. Destroying a session with
/// an open write transaction rolls it back.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens a transaction. Fails with kInvalidArgument if one is already
  /// open, or kConflict for kWrite when another writer is active.
  Status Begin(TxnMode mode = TxnMode::kRead);
  /// Commits the open transaction (publishes writes; read transactions
  /// just release their snapshot pin). On a durable database the write
  /// batch is fsync'd to the WAL before OK is returned; if the append
  /// fails, the transaction is rolled back and the error returned — the
  /// commit never happened.
  Status Commit();
  /// Rolls the open transaction back (write transactions restore the
  /// pre-Begin state; read transactions just release the pin).
  Status Rollback();

  bool in_transaction() const { return open_; }
  TxnMode mode() const { return mode_; }
  /// The graph this session's statements currently execute against: the
  /// pinned snapshot (kRead), the live head (kWrite), or null outside a
  /// transaction (auto-commit statements pin per statement).
  const GraphPtr& graph() const { return txn_graph_; }

  /// Executes one statement under the session's transaction state (see
  /// class comment). An updating statement inside a kRead transaction
  /// fails with kInvalidArgument.
  Result<QueryResult> Execute(std::string_view query,
                              const ValueMap& params = {});
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const ValueMap& params = {});

 private:
  friend class CypherEngine;
  Session(CypherEngine* engine, uint64_t rand_seed)
      : engine_(engine), rand_state_(rand_seed) {}

  CypherEngine* engine_;
  bool open_ = false;
  TxnMode mode_ = TxnMode::kRead;
  GraphPtr txn_graph_;
  /// Catalog bindings pinned at Begin(kRead): FROM GRAPH (named and AT
  /// "url") references resolve against this snapshot for the whole
  /// transaction, so a concurrent RegisterGraph/RegisterUrl cannot
  /// change what a snapshot-isolated reader sees between statements.
  std::shared_ptr<const CatalogSnapshot> txn_catalog_;
  /// This session's seeded rand() substream (ISSUE 8 satellite, PR 7
  /// follow-up): derived from the engine seed and the session ordinal at
  /// CreateSession, advanced statement to statement by this session
  /// alone. Concurrent sessions no longer contend on — or perturb — the
  /// engine-wide stream, and a session's rand() sequence is reproducible
  /// given the engine seed and session creation order.
  uint64_t rand_state_;
};

}  // namespace gqlite

#endif  // GQLITE_CORE_SESSION_H_
