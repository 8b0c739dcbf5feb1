#include "src/core/engine.h"

#include "src/core/session.h"
#include "src/exec/parallel.h"
#include "src/exec/worker_pool.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/canonicalize.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"
#include "src/plan/runtime.h"
#include "src/storage/storage_engine.h"
#include "src/storage/wal_recorder.h"

namespace gqlite {

namespace {

/// Un-pins a plan-cache entry on scope exit, including error returns
/// mid-execution.
struct EntryReleaser {
  PlanCache* cache;
  PlanCache::EntryPtr entry;
  ~EntryReleaser() {
    if (entry != nullptr) cache->Release(entry);
  }
};

}  // namespace

Status CypherEngine::ApplyEnvOverrides(EngineOptions* options) {
  GQL_ASSIGN_OR_RETURN(options->batch_size,
                       EffectiveBatchSize(options->batch_size));
  GQL_ASSIGN_OR_RETURN(options->num_threads,
                       EffectiveNumThreads(options->num_threads));
  return Status::OK();
}

CypherEngine::CypherEngine(const EngineOptions& options,
                           std::unique_ptr<StorageEngine> storage,
                           std::shared_ptr<PropertyGraph> recovered)
    : options_(options),
      plan_cache_(options.plan_cache_capacity),
      storage_(std::move(storage)),
      rand_state_(options.rand_seed) {
  if (storage_->durable()) {
    recorder_ = std::make_unique<WalRecorder>(recovered.get());
    recovered->set_write_observer(recorder_.get());
  }
  graph_ = std::move(recovered);
}

CypherEngine::~CypherEngine() {
  // The head is shared and may outlive the engine (e.g. through a
  // captured catalog snapshot); never leave it pointing at the dying
  // recorder.
  if (recorder_ != nullptr) graph_->set_write_observer(nullptr);
}

Status CypherEngine::Checkpoint() {
  // Hold the writer slot across the whole checkpoint: an active write
  // transaction finishes first and new ones wait — so the pinned
  // committed snapshot matches "every WAL batch appended so far",
  // exactly what WriteCheckpoint claims.
  GQL_RETURN_IF_ERROR(AcquireWriter(/*wait=*/true).status());
  GraphPtr snapshot;
  {
    MutexLock lock(&txn_mu_);
    snapshot = ReadSnapshotLocked();
  }
  Status written = storage_->WriteCheckpoint(*snapshot);
  // Nothing was mutated, so releasing the slot cannot append a batch.
  Status released = CommitWriter();
  return written.ok() ? released : written;
}

Status CypherEngine::Close() {
  Status flushed = Status::OK();
  if (recorder_ != nullptr) {
    // Taking the writer slot waits out in-flight writers; detach the
    // recorder before releasing so no op can slip in after the final
    // append.
    Result<GraphPtr> live = AcquireWriter(/*wait=*/true);
    if (live.ok()) {
      (*live)->set_write_observer(nullptr);
      flushed = CommitWriter();
    } else {
      flushed = live.status();
    }
    recorder_.reset();
  }
  Status closed = storage_->Close();
  return flushed.ok() ? closed : flushed;
}

std::unique_ptr<Session> CypherEngine::CreateSession() {
  uint64_t ordinal;
  {
    MutexLock lock(&stats_mu_);
    ordinal = ++sessions_created_;
  }
  // Distinct substream per session: the engine seed advanced by a
  // per-session Weyl increment (the splitmix64 constant), then mixed so
  // nearby ordinals do not yield nearby rand() sequences. Deterministic
  // given the seed and session creation order.
  uint64_t seed = options_.rand_seed + ordinal * 0x9E3779B97F4A7C15ULL;
  seed ^= seed >> 30;
  seed *= 0xBF58476D1CE4E5B9ULL;
  seed ^= seed >> 27;
  return std::unique_ptr<Session>(new Session(this, seed));
}

WorkerPool* CypherEngine::EnsureWorkerPool() {
  MutexLock lock(&pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(options_.num_threads - 1);
  }
  return pool_.get();
}

Result<Table> CypherEngine::RunPlan(Plan* plan, WorkerPool* pool,
                                    ParallelRunStats* prun) {
  // Per-execution counters accumulate into locals and fold into the
  // guarded cumulative stats once at the end, so a monitoring thread can
  // read exec_stats()/parallel_stats() while the query runs.
  BatchStats run;
  Table table;
  bool parallel = pool != nullptr && plan->parallel.safe;
  if (parallel) {
    // Sessions take turns on the shared pool.
    MutexLock plock(&pool_exec_mu_);
    GQL_ASSIGN_OR_RETURN(table, ExecutePlanParallel(plan, pool,
                                                    options_.batch_size,
                                                    &run, prun));
  } else {
    GQL_ASSIGN_OR_RETURN(table, ExecutePlan(plan, options_.batch_size, &run));
  }
  MutexLock lock(&stats_mu_);
  exec_stats_.rows += run.rows;
  exec_stats_.batches += run.batches;
  if (prun->workers > 0) {
    ++parallel_stats_.queries;
    parallel_stats_.morsels += prun->morsels;
    if (prun->sort_merge) ++parallel_stats_.sort_merges;
    if (prun->agg_merge) ++parallel_stats_.agg_merges;
    if (prun->partitioned_distinct) ++parallel_stats_.distinct_merges;
  }
  if (pool != nullptr && !parallel && !plan->parallel.reason.empty()) {
    ++parallel_stats_.serial_reasons[plan->parallel.reason];
  }
  return table;
}

MatchOptions CypherEngine::MakeMatchOptions() const {
  MatchOptions m;
  m.morphism = options_.morphism;
  m.max_var_length = options_.max_var_length;
  return m;
}

PlannerOptions CypherEngine::MakePlannerOptions() const {
  PlannerOptions popts;
  popts.expand_strategy = options_.expand_strategy;
  popts.direction_policy = options_.direction_policy;
  popts.batch_size = options_.batch_size;
  popts.num_threads = options_.num_threads;
  popts.match = MakeMatchOptions();
  return popts;
}

// ---- MVCC transaction core -------------------------------------------------

GraphPtr CypherEngine::ReadSnapshot() {
  MutexLock lock(&txn_mu_);
  return ReadSnapshotLocked();
}

GraphPtr CypherEngine::ReadSnapshotLocked() {
  if (writer_active_) {
    // A writer owns the head: serve the snapshot taken at its begin and
    // do not touch head fields it may be mutating right now.
    return committed_snapshot_;
  }
  if (graph_->frozen()) {
    // The default graph is itself a frozen snapshot (e.g. an oracle
    // database bound to another database's snapshot): it cannot change,
    // so it IS the committed state. Copying here would also race —
    // frozen graphs are shared across engines and Snapshot() is a
    // mutation.
    return graph_;
  }
  if (committed_snapshot_ == nullptr ||
      committed_version_ != graph_->data_version()) {
    committed_snapshot_ = graph_->Snapshot();
    committed_version_ = graph_->data_version();
  }
  return committed_snapshot_;
}

Result<GraphPtr> CypherEngine::AcquireWriter(bool wait) {
  // Durable storage whose recorder is gone has been Close()d: writes
  // could no longer be logged, so refuse them instead of silently
  // diverging memory from disk.
  if (storage_->durable() && recorder_ == nullptr) {
    return Status::InvalidArgument("database is closed for writes");
  }
  MutexLock lock(&txn_mu_);
  while (writer_active_) {
    if (!wait) {
      return Status::Conflict(
          "write-write conflict: another write transaction is in progress");
    }
    txn_cv_.Wait(&txn_mu_);
  }
  if (graph_->frozen()) {
    return Status::InvalidArgument(
        "the default graph is a read-only snapshot; open the database "
        "with a mutable starting graph to write");
  }
  // Pin the pre-transaction committed state BEFORE any dirty write:
  // readers starting during the transaction are served this snapshot,
  // and Rollback restores it.
  ReadSnapshotLocked();
  writer_active_ = true;
  return graph_;
}

Status CypherEngine::CommitWriter() {
  // Durability first: the batch is on disk (fsync'd) before the commit
  // is acknowledged — still holding the writer slot, so batches hit the
  // log in commit order. On failure the transaction rolls back: OK from
  // this function is the moment the commit exists.
  if (recorder_ != nullptr && recorder_->HasPending()) {
    Status st = storage_->AppendCommit(recorder_->TakePending());
    if (!st.ok()) {
      RollbackWriter();
      return st;
    }
  }
  MutexLock lock(&txn_mu_);
  // Publishing is lazy: with the writer slot free, the next
  // ReadSnapshotLocked sees the head's data_version moved and takes a
  // fresh snapshot.
  writer_active_ = false;
  txn_cv_.NotifyAll();
  return Status::OK();
}

void CypherEngine::RollbackWriter() {
  MutexLock lock(&txn_mu_);
  // Re-materialize the pre-begin state as a fresh live head. The
  // committed snapshot stays (it is content-equal to the new head), so
  // cached plans — validated against the executing snapshot's versions
  // and rebound to it per execution — stay valid.
  GraphPtr restored = committed_snapshot_->Clone();
  if (recorder_ != nullptr) {
    // Drop the transaction's unlogged ops and observe the restored head
    // from its (rolled-back) interner state — which matches what the log
    // contains, since every older commit was harvested.
    recorder_->Rebind(restored.get());
    restored->set_write_observer(recorder_.get());
  }
  committed_version_ = restored->data_version();
  graph_ = std::move(restored);
  writer_active_ = false;
  txn_cv_.NotifyAll();
}

// ---- Statement execution ---------------------------------------------------

Result<PreparedQuery> CypherEngine::Prepare(std::string_view query) {
  auto state = std::make_shared<PreparedStatement>();
  GQL_ASSIGN_OR_RETURN(state->query, ParseQuery(query));
  // Analysis runs on the original tree so diagnostics mention the
  // literals the user wrote, not synthetic parameters.
  GQL_ASSIGN_OR_RETURN(state->info, Analyze(state->query));
  bool reads_catalog = false;
  for (const auto& part : state->query.parts) {
    for (const auto& c : part.clauses) {
      if (c->kind == ast::Clause::Kind::kReturnGraph) {
        state->has_return_graph = true;
      } else if (c->kind == ast::Clause::Kind::kFromGraph) {
        reads_catalog = true;
      }
    }
  }
  // Canonicalize only when a cached plan can actually use it: updating
  // and RETURN GRAPH queries run on the interpreter (where keeping the
  // user's literals also keeps diagnostics in their terms), only
  // default-graph plans are cached (FROM GRAPH / QUERY GRAPH targets
  // resolve per statement), and with the cache off the rewrite+unparse
  // would be pure overhead on every Execute(text) call.
  bool cacheable = !state->info.updating && !state->has_return_graph &&
                   !reads_catalog &&
                   options_.mode == ExecutionMode::kVolcano &&
                   options_.plan_cache_capacity > 0;
  if (cacheable) {
    state->constants = AutoParameterize(&state->query).extracted;
    state->text_key = NormalizedQueryKey(state->query);
  }
  return PreparedQuery(PreparedPtr(std::move(state)));
}

Result<QueryResult> CypherEngine::Execute(std::string_view query,
                                          const ValueMap& params) {
  GQL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query));
  return Execute(prepared, params);
}

Result<QueryResult> CypherEngine::Execute(const PreparedQuery& prepared,
                                          const ValueMap& params) {
  return ExecuteWith(prepared, params, /*session_rand=*/nullptr);
}

Result<QueryResult> CypherEngine::ExecuteWith(const PreparedQuery& prepared,
                                              const ValueMap& params,
                                              uint64_t* session_rand) {
  if (!prepared.valid()) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  if (prepared.state_->info.updating) {
    // Auto-commit write: wait for the single-writer slot, apply to the
    // live head, commit. Commit also on error — a failed statement may
    // have applied partial effects (pre-session behavior); explicit
    // Session transactions get Rollback instead.
    GQL_ASSIGN_OR_RETURN(GraphPtr live, AcquireWriter(/*wait=*/true));
    Result<QueryResult> result = ExecuteOn(prepared, params, live,
                                           session_rand);
    Status committed = CommitWriter();
    if (result.ok() && !committed.ok()) return committed;
    return result;
  }
  // Read statement: execute against the committed-state snapshot,
  // resolved here, once for the whole statement.
  return ExecuteOn(prepared, params, ReadSnapshot(), session_rand);
}

Result<QueryResult> CypherEngine::ExecuteOn(
    const PreparedQuery& prepared, const ValueMap& params,
    const GraphPtr& graph, uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  const PreparedStatement& st = *prepared.state_;
  bool interpreted = st.info.updating || st.has_return_graph ||
                     options_.mode == ExecutionMode::kInterpreter;
  if (st.constants.empty()) {
    // Nothing was extracted — run on the caller's map directly (the
    // common case for fully-parameterized and non-cacheable statements).
    if (interpreted) {
      return RunInterpreter(st.query, params, graph, session_rand,
                            std::move(pinned_catalog));
    }
    return RunVolcano(prepared.state_, params, graph, session_rand,
                      std::move(pinned_catalog));
  }
  // User parameters first, then the literals extracted at Prepare time.
  // Synthetic names never collide with parameters referenced by the
  // query, so the overlay cannot shadow a binding the query can see.
  ValueMap merged = params;
  for (const auto& [name, value] : st.constants) {
    merged[name] = value;
  }
  if (interpreted) {
    return RunInterpreter(st.query, merged, graph, session_rand,
                          std::move(pinned_catalog));
  }
  return RunVolcano(prepared.state_, merged, graph, session_rand,
                    std::move(pinned_catalog));
}

Result<QueryResult> CypherEngine::RunVolcano(
    const PreparedPtr& prepared, const ValueMap& params,
    const GraphPtr& graph, uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  CatalogRef cref(&catalog_, pinned_catalog);
  {
    MutexLock lock(&stats_mu_);
    ++exec_queries_;  // counts attempts, like the serial-era counter
  }
  RandScope rand(this, session_rand);
  // A statement without a cache key (or a database without a cache)
  // never consults the cache.
  const std::string& key = prepared->text_key;
  bool cached = options_.plan_cache_capacity > 0 && !key.empty();
  bool busy = false;
  PlanCache::EntryPtr entry;
  if (cached) {
    entry = plan_cache_.Acquire(key, graph->stats_version(),
                                graph->data_version(), &busy);
  }
  EntryReleaser releaser{&plan_cache_, entry};
  Plan local_plan;
  if (entry == nullptr) {
    Planner planner(cref, graph, &params, MakePlannerOptions(), rand.get());
    GQL_ASSIGN_OR_RETURN(local_plan, planner.PlanQuery(prepared->query));
    if (cached && !busy) {
      entry = plan_cache_.InsertAcquire(key, prepared, std::move(local_plan),
                                        graph->stats_version(),
                                        graph->data_version());
      releaser.entry = entry;
    }
    // else: no cache, or the cached entry is mid-execution in another
    // session; run the fresh plan uncached (its contexts are already
    // bound to this execution's graph, params and PRNG).
  }
  Plan* plan = &local_plan;
  if (entry != nullptr) {
    plan = &entry->plan;
    // Rebind execution-scoped state: this execution's parameter
    // bindings, PRNG checkout and snapshot (a cached plan only ever
    // reads the default graph). The pin guarantees exclusivity.
    for (auto& ctx : entry->plan.contexts) {
      ctx->eval.parameters = &params;
      ctx->eval.rand_state = rand.get();
      ctx->graph = graph.get();
      ctx->graph_owner = graph;
      ctx->eval.graph = graph.get();
    }
  }
  WorkerPool* pool = options_.num_threads > 1 ? EnsureWorkerPool() : nullptr;
  ParallelRunStats prun;
  QueryResult result;
  GQL_ASSIGN_OR_RETURN(result.table, RunPlan(plan, pool, &prun));
  return result;
}

Result<QueryResult> CypherEngine::RunInterpreter(
    const ast::Query& q, const ValueMap& params, const GraphPtr& graph,
    uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  QueryResult result;
  RandScope rand(this, session_rand);
  Interpreter::Options iopts;
  iopts.match = MakeMatchOptions();
  Interpreter interp(CatalogRef(&catalog_, std::move(pinned_catalog)), graph,
                     &params, iopts, rand.get());
  MatchOptions match = MakeMatchOptions();
  uint64_t* rand_state = rand.get();
  interp.set_update_handler([&interp, &graph, &params, &result, match,
                             rand_state](const ast::Clause& c,
                                         Table t) -> Result<Table> {
    // Catalog graphs are frozen values outside the writer slot, the WAL
    // and rollback: only the statement's bound graph takes writes.
    if (interp.current_graph() != graph) {
      return Status::InvalidArgument("a FROM GRAPH target is read-only");
    }
    UpdateExecutor upd(graph.get(), &params, match, rand_state,
                       &result.stats);
    return upd.Execute(c, std::move(t));
  });
  GQL_ASSIGN_OR_RETURN(result.table, interp.ExecuteQuery(q));
  result.graphs = interp.produced_graphs();
  return result;
}

Result<std::string> CypherEngine::Profile(std::string_view query,
                                          const ValueMap& params) {
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  if (info.updating) {
    return Status::Unimplemented(
        "PROFILE of updating queries is not supported");
  }
  GraphPtr snapshot = ReadSnapshot();
  RandScope rand(this);
  Planner planner(&catalog_, snapshot, &params, MakePlannerOptions(),
                  rand.get());
  GQL_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(q));
  {
    MutexLock lock(&stats_mu_);
    ++exec_queries_;
  }
  WorkerPool* pool = options_.num_threads > 1 ? EnsureWorkerPool() : nullptr;
  ParallelRunStats prun;
  GQL_ASSIGN_OR_RETURN(Table t, RunPlan(&plan, pool, &prun));
  std::string head;
  if (pool != nullptr && plan.parallel.safe) {
    // Fold every worker instance's counters into the printed tree.
    for (const OperatorPtr& instance : plan.extra_roots) {
      plan.root->AbsorbCounters(*instance);
    }
    head = "Parallel: " + std::to_string(prun.workers) + " workers, " +
           std::to_string(prun.morsels) + " morsels dispatched, " +
           plan.parallel.merge_shape +
           " (the merge-point projection runs in the merge stage; its "
           "tree counters stay 0)\n";
  } else if (pool != nullptr) {
    head = "Parallel: serial (" + plan.parallel.reason + ")\n";
  }
  std::string out = head + ProfilePlan(*plan.root);
  out += "result: " + std::to_string(t.NumRows()) + " rows\n";
  return out;
}

Result<std::string> CypherEngine::Explain(std::string_view query,
                                          const ValueMap& params) {
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  if (info.updating) {
    return Status::Unimplemented(
        "EXPLAIN of updating queries is not supported (they run on the "
        "clause interpreter)");
  }
  // Plan against a throwaway copy of the catalog: it resolves the same
  // graphs, but the name a FROM GRAPH ... AT binds lands in the copy, so
  // EXPLAIN leaves the catalog as it found it.
  std::shared_ptr<const CatalogSnapshot> bindings = catalog_.Capture();
  GraphCatalog copy;
  for (const auto& [name, g] : bindings->graphs) copy.RegisterGraph(name, g);
  for (const auto& [url, g] : bindings->urls) copy.RegisterUrl(url, g);
  RandScope rand(this);
  return ExplainQuery(&copy, ReadSnapshot(), &params, MakePlannerOptions(),
                      rand.get(), q);
}

}  // namespace gqlite
