#ifndef GQLITE_CORE_ENGINE_H_
#define GQLITE_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/sync.h"
#include "src/core/query_result.h"
#include "src/plan/plan_cache.h"
#include "src/plan/planner.h"
#include "src/update/update_executor.h"

namespace gqlite {

class WorkerPool;
class Session;
class Database;
class StorageEngine;
class WalRecorder;
struct ParallelRunStats;

/// How read queries execute (experiment E15 ablates the two):
///  * kInterpreter — the reference implementation of the paper's formal
///    semantics (clause-by-clause table functions, naive matching);
///  * kVolcano     — cost-based planning to batched (morsel-at-a-time)
///    Volcano operators (§2 "Neo4j implementation", vectorized: see
///    src/plan/runtime.h and EngineOptions::batch_size), with the
///    MatcherOp fallback for pattern shapes outside the pipeline subset.
/// Updating queries and RETURN GRAPH always run on the interpreter path.
enum class ExecutionMode : uint8_t { kInterpreter, kVolcano };

struct EngineOptions {
  ExecutionMode mode = ExecutionMode::kVolcano;
  /// Pattern-matching morphism (§8 configurable morphisms).
  Morphism morphism = Morphism::kEdgeIsomorphism;
  /// Cap substituted for ∞ in unbounded variable-length patterns (only
  /// binding under homomorphism; see MatchOptions).
  int64_t max_var_length = 1000000;
  /// Per-hop physical operator for chain expands: kCost compares the
  /// adjacency Expand against the relationship-store hash join per step
  /// on the executing snapshot's statistics; the forced values pin one
  /// side (kHashJoin is the E14 join-expand baseline). The forced-plan
  /// differential harness sets it to run both sides of every cost-based
  /// choice.
  ExpandStrategy expand_strategy = ExpandStrategy::kCost;
  /// Chain anchor/traversal-direction choice: kCost anchors at the
  /// cheapest scan, the forced values pin an end (kForceRight with
  /// kAdjacency is the naive left-to-right plan).
  DirectionPolicy direction_policy = DirectionPolicy::kCost;
  /// Seed for rand() (deterministic runs).
  uint64_t rand_seed = 0x5EEDC0FFEEULL;
  /// Bound on cached plans (LRU beyond it). Read queries that differ
  /// only in literal constants share one compiled plan
  /// (auto-parameterization). 0 disables caching: plan-per-query
  /// behavior, e.g. when benchmarking the planner itself.
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
  /// Morsel capacity of the batched Volcano runtime: how many rows each
  /// NextBatch call moves between operators. 1 restores tuple-at-a-time
  /// execution (the benches' `--no-batch` escape hatch). The environment
  /// variable GQLITE_BATCH_SIZE overrides this when the database opens —
  /// CI runs the whole test suite at batch size 1 under ASan to shake
  /// out batch-boundary bugs. A garbage override makes the open fail
  /// rather than being silently clamped.
  size_t batch_size = RowBatch::kDefaultCapacity;
  /// Worker count of the morsel-driven parallel runtime (src/exec/):
  /// parallel-safe read plans partition their driving scan across this
  /// many workers (a fixed pool of num_threads - 1 threads plus the
  /// calling thread). 1 = today's serial path. The environment variable
  /// GQLITE_THREADS overrides this when the database opens (the TSan CI
  /// leg runs the whole suite at 4).
  size_t num_threads = 1;
};

/// A parsed, analyzed and auto-parameterized query handle returned by
/// Database::Prepare. Cheap to copy (shared immutable state); execute
/// it repeatedly with different `$param` bindings via
/// Database::Execute(prepared, params) or Session::Execute. Literals
/// from the original text participate as synthetic parameters, so
/// `Prepare("MATCH (n {id: 1}) RETURN n")` and the same query with
/// `id: 42` share one cached plan.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return state_ != nullptr; }
  /// True for queries containing CREATE/DELETE/SET/REMOVE/MERGE.
  bool updating() const { return state_ != nullptr && state_->info.updating; }
  /// The normalized (auto-parameterized) query text — the plan-cache
  /// key. Empty for statements that bypass the cache (updating queries,
  /// RETURN GRAPH, FROM GRAPH / QUERY GRAPH, the interpreter mode, or a
  /// database without a cache).
  const std::string& normalized_text() const {
    static const std::string kEmpty;
    return state_ ? state_->text_key : kEmpty;
  }
  /// Extracted literal values, keyed by synthetic parameter name.
  const ValueMap& constants() const {
    static const ValueMap kNone;
    return state_ ? state_->constants : kNone;
  }

 private:
  friend class CypherEngine;
  explicit PreparedQuery(PreparedPtr state) : state_(std::move(state)) {}
  PreparedPtr state_;
};

/// The query engine behind a Database: parse → analyze → execute Cypher
/// over an in-memory property graph (plus the Cypher 10 named-graph
/// catalog). Only Database builds one, with its final options and its
/// storage; statements reach it through Database and Session:
///
/// ```
/// GQL_ASSIGN_OR_RETURN(Database db, Database::OpenInMemory());
/// db.Execute("CREATE (:Person {name: 'Ada'})");
/// auto result = db.Execute("MATCH (p:Person) RETURN p.name");
/// std::cout << result->ToString();
/// ```
///
/// Read queries on the Volcano path go through a plan cache: the query is
/// auto-parameterized, and the compiled plan is reused for later queries
/// with the same normalized text (hit/miss/eviction counters via
/// plan_cache_stats()). For repeated queries, skip re-parsing entirely:
///
/// ```
/// auto stmt = db.Prepare("MATCH (p:Person {id: $id}) RETURN p.name");
/// auto r1 = db.Execute(*stmt, {{"id", Value::Int(1)}});
/// auto r2 = db.Execute(*stmt, {{"id", Value::Int(2)}});
/// ```
///
/// ## Concurrency and transactions
///
/// Statement entry points are thread-safe and snapshot-isolated on the
/// DEFAULT graph (MVCC, single writer):
///  * a read statement executes against an immutable copy-on-write
///    snapshot of the last committed state — it never observes a
///    concurrent writer's partial effects;
///  * an updating statement acquires the engine-wide writer slot
///    (blocking until free), applies to the live graph, and commits on
///    completion, at which point later reads snapshot the new state.
/// For multi-statement transactions and explicit snapshot control, open
/// a Session (Database::CreateSession): `Begin(kRead)` pins one snapshot
/// across many statements; `Begin(kWrite)` takes the writer slot without
/// blocking, surfacing Status::Conflict when a second writer exists.
/// Named and URL graphs (FROM GRAPH targets) need no snapshots: the
/// catalog stores each as a frozen value, and an updating clause on one
/// fails with kInvalidArgument. The default graph is not in the catalog;
/// this transaction core is its only owner. NOT covered: the
/// engine-level rand() stream, which overlaps across concurrent
/// auto-commit statements (statements run through a Session draw from
/// that session's own seeded substream instead).
///
/// The default graph changes only through updating statements: its
/// starting state is bound at open (Database::Open / OpenInMemory), and
/// Snapshot() is the read-only view for inspection.
///
/// What stays public is introspection: options, catalog, plan cache and
/// execution counters.
class CypherEngine {
 public:
  // Out-of-line: WorkerPool is incomplete here. Not movable — a
  // Database owns its engine through a unique_ptr, and sessions hold
  // its address.
  ~CypherEngine();
  CypherEngine(const CypherEngine&) = delete;
  CypherEngine& operator=(const CypherEngine&) = delete;

  /// The options the database was opened with, environment overrides
  /// applied. Fixed for the engine's lifetime.
  const EngineOptions& options() const { return options_; }

  /// Named-graph catalog (Cypher 10, §6): frozen named and URL graphs,
  /// never the default graph. Internally locked.
  GraphCatalog& catalog() { return catalog_; }

  /// The plan cache (its methods lock internally).
  PlanCache& plan_cache() { return plan_cache_; }
  /// Hit/miss/eviction/invalidation counters (snapshot by value: safe to
  /// call from a monitoring thread while queries execute).
  PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }

  /// Cumulative rows/batches the batched runtime's root drain produced
  /// across this engine's Volcano executions (gqlsh :stats). Snapshot by
  /// value: safe to call from a monitoring thread while queries execute
  /// (counters fold in under stats_mu_ when each execution finishes).
  BatchStats exec_stats() const EXCLUDES(stats_mu_) {
    MutexLock lock(&stats_mu_);
    return exec_stats_;
  }
  /// Number of Volcano executions behind exec_stats().
  uint64_t exec_queries() const EXCLUDES(stats_mu_) {
    MutexLock lock(&stats_mu_);
    return exec_queries_;
  }

  /// Cumulative morsel-driven parallel execution counters (gqlsh :stats).
  struct ParallelStats {
    uint64_t queries = 0;  // executions that ran on the parallel runtime
    uint64_t morsels = 0;  // scan morsels dispatched across them
    /// Executions per merge stage; agg_merges counts every parallel
    /// aggregation, keyed or keyless.
    uint64_t sort_merges = 0;      // executions using parallel merge sort
    uint64_t agg_merges = 0;       // ... aggregation merge
    uint64_t distinct_merges = 0;  // ... partitioned DISTINCT merge
    /// Serial fallbacks of parallel-eligible executions (num_threads > 1),
    /// keyed by the AnalyzeParallelCandidate reason. EXPLAIN shows the
    /// reason for one query; these counters make coverage regressions
    /// (a query class silently dropping off the parallel path) observable
    /// in aggregate via gqlsh :stats.
    std::map<std::string, uint64_t> serial_reasons;
  };
  ParallelStats parallel_stats() const EXCLUDES(stats_mu_) {
    MutexLock lock(&stats_mu_);
    return parallel_stats_;
  }

 private:
  /// Database builds the engine and forwards its statement API; Session
  /// drives the transaction core.
  friend class Database;
  friend class Session;

  /// `options` have their environment overrides applied already
  /// (ApplyEnvOverrides); `recovered` is what `storage` recovered at
  /// open. Binds it as the default graph and — when the storage is
  /// durable — attaches a WalRecorder so every committed primitive
  /// mutation is appended to the log before the commit is acknowledged.
  CypherEngine(const EngineOptions& options,
               std::unique_ptr<StorageEngine> storage,
               std::shared_ptr<PropertyGraph> recovered);

  // ---- Statement API (reached through Database and Session) ------------

  /// The committed state of the implicit Cypher 9 global graph: a frozen
  /// snapshot (the one read statements execute against) that later
  /// commits never change.
  std::shared_ptr<const PropertyGraph> Snapshot() EXCLUDES(txn_mu_) {
    return ReadSnapshot();
  }

  /// Opens a session; the engine must outlive every session it created.
  std::unique_ptr<Session> CreateSession();

  /// Parses, validates and runs a query. `params` supplies `$name`
  /// parameters (§2: built-in parameter support).
  Result<QueryResult> Execute(std::string_view query,
                              const ValueMap& params = {});

  /// Parses, validates and auto-parameterizes a query without running
  /// it. The handle never stales: executing it re-plans through the plan
  /// cache as needed.
  Result<PreparedQuery> Prepare(std::string_view query);

  /// Runs a prepared query. `params` supplies user `$name` parameters;
  /// literals extracted at Prepare time are bound automatically (their
  /// synthetic `$_pN` names never collide with user parameters).
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const ValueMap& params = {});

  /// Serializes the committed state as a new recovery baseline and
  /// truncates the write-ahead log (no-op for in-memory storage).
  /// Takes the writer slot for the duration: waits for an active write
  /// transaction, and holds out new ones while the checkpoint file is
  /// written.
  Status Checkpoint();

  /// Waits out an active write transaction, detaches the WAL recorder
  /// and closes the storage engine; later write commits to a durable
  /// database fail.
  Status Close();

  /// Renders the physical plan for a read query (Volcano operators),
  /// planned against a copy of the catalog so it registers no name.
  Result<std::string> Explain(std::string_view query,
                              const ValueMap& params = {});

  /// Executes a read query on the Volcano runtime and renders the plan
  /// with per-operator row counters (PROFILE).
  Result<std::string> Profile(std::string_view query,
                              const ValueMap& params = {});

  // ---- Internals --------------------------------------------------------

  /// Applies the GQLITE_BATCH_SIZE / GQLITE_THREADS environment
  /// overrides and clamps programmatic values. Database calls it before
  /// it touches storage, so a garbage override fails the open.
  static Status ApplyEnvOverrides(EngineOptions* options);
  /// Creates the fixed worker pool (num_threads - 1 threads) on first
  /// use.
  WorkerPool* EnsureWorkerPool() EXCLUDES(pool_mu_);
  /// Runs a planned read and folds its counters into the cumulative
  /// stats: on the parallel runtime when `pool` is set and the plan is
  /// parallel-safe (taking turns on the shared pool), serially otherwise
  /// — counting the serial fallback when `pool` is set. `prun` receives
  /// the parallel run's counters (workers == 0 when it ran serially).
  Result<Table> RunPlan(Plan* plan, WorkerPool* pool, ParallelRunStats* prun)
      EXCLUDES(pool_exec_mu_, stats_mu_);
  MatchOptions MakeMatchOptions() const;
  PlannerOptions MakePlannerOptions() const;

  // ---- MVCC transaction core (used by Execute and by Session) ----------

  /// The committed-state snapshot read statements execute against,
  /// refreshed lazily: while no writer is active and the head's
  /// data_version moved since the last snapshot, take a fresh one. While
  /// a writer IS active, returns the snapshot taken at that writer's
  /// begin — readers never observe mid-transaction state, and never
  /// touch head fields a writer may be mutating. A frozen head (an
  /// oracle bound to another engine's snapshot) is served as is.
  GraphPtr ReadSnapshot() EXCLUDES(txn_mu_);
  GraphPtr ReadSnapshotLocked() REQUIRES(txn_mu_);
  /// Takes the engine-wide single-writer slot and returns the live head
  /// graph pinned for the transaction. With `wait`, blocks until the
  /// slot frees (auto-commit statements); without, surfaces
  /// Status::Conflict (explicit Begin(kWrite) — the caller decides
  /// whether to retry). Fails with kInvalidArgument when the head is a
  /// frozen snapshot (read-only database).
  Result<GraphPtr> AcquireWriter(bool wait) EXCLUDES(txn_mu_);
  /// Publishes the writer's changes (later ReadSnapshot calls see them)
  /// and frees the writer slot. With durable storage bound, the
  /// transaction's WAL batch is appended and fsync'd FIRST — an OK
  /// return means the commit survives any crash; on append failure the
  /// transaction is rolled back and the error returned (the commit never
  /// happened).
  Status CommitWriter() EXCLUDES(txn_mu_);
  /// Discards the writer's changes by re-materializing the pre-begin
  /// committed snapshot as the new live head, then frees the slot.
  void RollbackWriter() EXCLUDES(txn_mu_);

  /// Execute(prepared, params) with an explicit PRNG substream: the
  /// auto-commit transaction wrapper shared by the engine-level entry
  /// point (session_rand == nullptr → the engine-wide stream) and
  /// Session::Execute outside a transaction (the session's substream).
  Result<QueryResult> ExecuteWith(const PreparedQuery& prepared,
                                  const ValueMap& params,
                                  uint64_t* session_rand);
  /// Executes a prepared statement against an explicit graph binding —
  /// the per-transaction pinned graph (the binding is resolved ONCE, at
  /// transaction begin, so a rollback that replaces the head cannot
  /// rebind a statement mid-flight).
  /// `session_rand` (optional) is the calling session's PRNG substream;
  /// null uses the engine-wide stream (ISSUE 8 satellite: sessions stop
  /// contending on — and perturbing — one shared stream).
  /// `pinned_catalog` (optional) is the calling transaction's catalog
  /// snapshot, captured at Begin: FROM GRAPH references resolve against
  /// it, so a concurrent RegisterGraph/RegisterUrl cannot change what a
  /// snapshot-isolated reader sees mid-transaction (this PR's
  /// snapshot-binding bugfix — resolution used to consult the live
  /// catalog at each statement's planning time).
  Result<QueryResult> ExecuteOn(
      const PreparedQuery& prepared, const ValueMap& params,
      const GraphPtr& graph, uint64_t* session_rand = nullptr,
      std::shared_ptr<const CatalogSnapshot> pinned_catalog = nullptr);
  /// The interpreter path: reference semantics; the only executor for
  /// updating queries and RETURN GRAPH.
  Result<QueryResult> RunInterpreter(
      const ast::Query& q, const ValueMap& params, const GraphPtr& graph,
      uint64_t* session_rand = nullptr,
      std::shared_ptr<const CatalogSnapshot> pinned_catalog = nullptr);
  /// The Volcano path with plan-cache consultation.
  Result<QueryResult> RunVolcano(
      const PreparedPtr& prepared, const ValueMap& params,
      const GraphPtr& graph, uint64_t* session_rand = nullptr,
      std::shared_ptr<const CatalogSnapshot> pinned_catalog = nullptr);

  /// Checks out the engine PRNG state into a local for one execution and
  /// folds it back on scope exit, so the runtime advances a plain
  /// uint64_t without holding any lock. Serial behavior is unchanged;
  /// concurrent engine-level executions overlap streams (each starts
  /// from the same checkout, last writer wins) — rand() makes no
  /// cross-session determinism promise. With a non-null `session_rand`
  /// the scope is a pass-through to that session-owned substream: no
  /// checkout, no lock (a Session is single-threaded by contract), and
  /// the substream advances statement to statement without ever touching
  /// the engine-wide state.
  class RandScope {
   public:
    RandScope(CypherEngine* e, uint64_t* session_rand = nullptr)
        : engine_(e), session_(session_rand) {
      if (session_ != nullptr) return;
      MutexLock lock(&e->stats_mu_);
      local_ = e->rand_state_;
    }
    ~RandScope() {
      if (session_ != nullptr) return;
      MutexLock lock(&engine_->stats_mu_);
      engine_->rand_state_ = local_;
    }
    RandScope(const RandScope&) = delete;
    RandScope& operator=(const RandScope&) = delete;
    uint64_t* get() { return session_ != nullptr ? session_ : &local_; }

   private:
    CypherEngine* engine_;
    uint64_t* session_;
    uint64_t local_ = 0;
  };

  const EngineOptions options_;
  GraphCatalog catalog_;
  /// The live head of the default graph. Replaced only by RollbackWriter.
  GraphPtr graph_ GUARDED_BY(txn_mu_);
  PlanCache plan_cache_;

  /// Persistence layer, bound at open. Mutating storage state is always
  /// done while HOLDING the writer slot, which serializes
  /// appends/checkpoints without a lock of its own.
  std::unique_ptr<StorageEngine> storage_;
  /// Observes the live head's primitive mutations for the WAL; non-null
  /// exactly when storage_ is durable (until Close). Harvested at commit.
  std::unique_ptr<WalRecorder> recorder_;

  /// Transaction coordination: the single-writer slot and the lazily
  /// refreshed committed-state snapshot.
  Mutex txn_mu_;
  CondVar txn_cv_;
  bool writer_active_ GUARDED_BY(txn_mu_) = false;
  GraphPtr committed_snapshot_ GUARDED_BY(txn_mu_);
  /// The head's data_version committed_snapshot_ was taken at.
  uint64_t committed_version_ GUARDED_BY(txn_mu_) = 0;

  /// Guards the cumulative execution counters below. Executions
  /// accumulate into locals and fold in here once per query, so a
  /// monitoring thread reading exec_stats()/parallel_stats() mid-query
  /// never races the runtime (pinned by a TSan-run test).
  mutable Mutex stats_mu_;
  BatchStats exec_stats_ GUARDED_BY(stats_mu_);
  uint64_t exec_queries_ GUARDED_BY(stats_mu_) = 0;
  ParallelStats parallel_stats_ GUARDED_BY(stats_mu_);
  /// PRNG state for rand(); checked out per execution via RandScope.
  uint64_t rand_state_ GUARDED_BY(stats_mu_);
  /// Sessions created so far — each gets a distinct seeded substream
  /// (rand_seed advanced by a per-session Weyl increment).
  uint64_t sessions_created_ GUARDED_BY(stats_mu_) = 0;

  /// Guards the lazy construction of the worker pool, which then lives
  /// as long as the engine.
  Mutex pool_mu_;
  /// Fixed worker pool for the parallel runtime (num_threads - 1
  /// threads; the query thread is worker 0). Created lazily on the first
  /// parallel-eligible execution.
  std::unique_ptr<WorkerPool> pool_ GUARDED_BY(pool_mu_);
  /// Serializes executions on the shared worker pool: the morsel
  /// dispatcher and per-worker pipelines handle one plan at a time, so
  /// concurrent sessions take turns on the parallel runtime (serial
  /// executions proceed unserialized).
  Mutex pool_exec_mu_;
};

}  // namespace gqlite

#endif  // GQLITE_CORE_ENGINE_H_
