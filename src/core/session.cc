#include "src/core/session.h"

namespace gqlite {

Session::~Session() {
  if (open_ && mode_ == TxnMode::kWrite) {
    engine_->RollbackWriter();
  }
}

Status Session::Begin(TxnMode mode) {
  if (open_) {
    return Status::InvalidArgument(
        "a transaction is already open in this session");
  }
  if (mode == TxnMode::kWrite) {
    // Explicit write transactions surface conflicts instead of queueing
    // behind the active writer; the caller owns the retry policy.
    GQL_ASSIGN_OR_RETURN(txn_graph_, engine_->AcquireWriter(/*wait=*/false));
  } else {
    txn_graph_ = engine_->ReadSnapshot();
    // Pin the catalog bindings too: FROM GRAPH resolution is part of
    // what the snapshot-isolated reader must see consistently.
    txn_catalog_ = engine_->catalog().Capture();
  }
  open_ = true;
  mode_ = mode;
  return Status::OK();
}

Status Session::Commit() {
  if (!open_) {
    return Status::InvalidArgument("no open transaction to commit");
  }
  Status committed = Status::OK();
  if (mode_ == TxnMode::kWrite) {
    // On failure the engine has already rolled the transaction back
    // (durable commit could not be appended); the session closes either
    // way and the caller decides whether to retry.
    committed = engine_->CommitWriter();
  }
  open_ = false;
  txn_graph_.reset();
  txn_catalog_.reset();
  return committed;
}

Status Session::Rollback() {
  if (!open_) {
    return Status::InvalidArgument("no open transaction to roll back");
  }
  if (mode_ == TxnMode::kWrite) {
    engine_->RollbackWriter();
  }
  open_ = false;
  txn_graph_.reset();
  txn_catalog_.reset();
  return Status::OK();
}

Result<QueryResult> Session::Execute(std::string_view query,
                                     const ValueMap& params) {
  GQL_ASSIGN_OR_RETURN(PreparedQuery prepared, engine_->Prepare(query));
  return Execute(prepared, params);
}

Result<QueryResult> Session::Execute(const PreparedQuery& prepared,
                                     const ValueMap& params) {
  if (!open_) {
    // No explicit transaction: per-statement auto-commit, exactly the
    // engine-level contract — but on this session's rand() substream.
    return engine_->ExecuteWith(prepared, params, &rand_state_);
  }
  if (!prepared.valid()) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  if (mode_ == TxnMode::kRead && prepared.updating()) {
    return Status::InvalidArgument(
        "updating statement in a read transaction; Begin(TxnMode::kWrite)");
  }
  // Bind to the transaction's pinned graph (the kRead snapshot, or the
  // live head the kWrite transaction owns — it sees its own writes) and,
  // for read transactions, the catalog bindings pinned at Begin.
  return engine_->ExecuteOn(prepared, params, txn_graph_, &rand_state_,
                            txn_catalog_);
}

}  // namespace gqlite
