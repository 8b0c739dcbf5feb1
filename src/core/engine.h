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
  PlannerOptions::Mode planner = PlannerOptions::Mode::kGreedy;
  /// Pattern-matching morphism (§8 configurable morphisms).
  Morphism morphism = Morphism::kEdgeIsomorphism;
  /// Cap substituted for ∞ in unbounded variable-length patterns (only
  /// binding under homomorphism; see MatchOptions).
  int64_t max_var_length = 1000000;
  /// Per-hop physical operator for chain expands: kCost compares the
  /// adjacency Expand against the relationship-store hash join per step
  /// on the executing snapshot's statistics; the forced values pin one
  /// side (kHashJoin is the E14 join-expand baseline). The environment
  /// variable GQLITE_PLAN_MODE overrides this and the two fields around
  /// it at engine construction — comma-separated tokens from {ltr,
  /// greedy, dp} (planner mode), {adjacency, hashjoin, cost-expand}
  /// (this field) and {force-right, force-left, cost-direction}
  /// (direction_policy), e.g.
  /// `GQLITE_PLAN_MODE=dp,hashjoin,force-left`. The differential
  /// harness uses it to run both sides of every cost-based choice; a
  /// garbage token surfaces as an error from Prepare/Execute.
  ExpandStrategy expand_strategy = ExpandStrategy::kCost;
  /// Chain anchor/traversal-direction choice: kCost searches by
  /// estimated cost, the forced values pin an end (see expand_strategy
  /// for the GQLITE_PLAN_MODE override).
  DirectionPolicy direction_policy = DirectionPolicy::kCost;
  /// Seed for rand() (deterministic runs).
  uint64_t rand_seed = 0x5EEDC0FFEEULL;
  /// Reuse compiled plans across executions of read queries that differ
  /// only in literal constants (auto-parameterization). Disable to get
  /// plan-per-query behavior, e.g. when benchmarking the planner itself.
  bool use_plan_cache = true;
  /// Bound on cached plans (LRU beyond it). 0 disables caching.
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
  /// Morsel capacity of the batched Volcano runtime: how many rows each
  /// NextBatch call moves between operators. 1 restores tuple-at-a-time
  /// execution (the benches' `--no-batch` escape hatch). The environment
  /// variable GQLITE_BATCH_SIZE overrides this at engine construction —
  /// CI runs the whole test suite at batch size 1 under ASan to shake
  /// out batch-boundary bugs. A garbage override surfaces as an error
  /// from Prepare/Execute rather than a silent clamp.
  size_t batch_size = RowBatch::kDefaultCapacity;
  /// Worker count of the morsel-driven parallel runtime (src/exec/):
  /// parallel-safe read plans partition their driving scan across this
  /// many workers (a fixed pool of num_threads - 1 threads plus the
  /// calling thread). 1 = today's serial path. The environment variable
  /// GQLITE_THREADS overrides this at engine construction (the TSan CI
  /// leg runs the whole suite at 4). Part of the plan-cache options
  /// fingerprint: plans bake in per-worker pipeline instances.
  size_t num_threads = 1;
};

/// A parsed, analyzed and auto-parameterized query handle returned by
/// CypherEngine::Prepare. Cheap to copy (shared immutable state); execute
/// it repeatedly with different `$param` bindings via
/// CypherEngine::Execute(prepared, params). Literals from the original
/// text participate as synthetic parameters, so
/// `Prepare("MATCH (n {id: 1}) RETURN n")` and the same query with
/// `id: 42` share one cached plan.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return state_ != nullptr; }
  /// True for queries containing CREATE/DELETE/SET/REMOVE/MERGE.
  bool updating() const { return state_ != nullptr && state_->info.updating; }
  /// The normalized (auto-parameterized) query text — the structural part
  /// of the plan-cache key. Empty for statements that bypass the cache
  /// (updating queries, RETURN GRAPH, or prepared while caching was off).
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

/// The public entry point of gqlite: parse → analyze → execute Cypher
/// over an in-memory property graph (plus the Cypher 10 named-graph
/// catalog).
///
/// ```
/// CypherEngine engine;
/// engine.Execute("CREATE (:Person {name: 'Ada'})");
/// auto result = engine.Execute("MATCH (p:Person) RETURN p.name");
/// std::cout << result->ToString();
/// ```
///
/// Read queries on the Volcano path go through a plan cache: the query is
/// auto-parameterized, and the compiled plan is reused for later queries
/// with the same normalized text (hit/miss/eviction counters via
/// plan_cache_stats()). For repeated queries, skip re-parsing entirely:
///
/// ```
/// auto stmt = engine.Prepare("MATCH (p:Person {id: $id}) RETURN p.name");
/// auto r1 = engine.Execute(*stmt, {{"id", Value::Int(1)}});
/// auto r2 = engine.Execute(*stmt, {{"id", Value::Int(2)}});
/// ```
///
/// ## Concurrency and transactions
///
/// Engine entry points are thread-safe and snapshot-isolated on the
/// DEFAULT graph (MVCC, single writer):
///  * a read statement executes against an immutable copy-on-write
///    snapshot of the last committed state — it never observes a
///    concurrent writer's partial effects;
///  * an updating statement acquires the engine-wide writer slot
///    (blocking until free), applies to the live graph, and commits on
///    completion, at which point later reads snapshot the new state.
/// For multi-statement transactions and explicit snapshot control, open
/// a Session (CreateSession): `Begin(kRead)` pins one snapshot across
/// many statements; `Begin(kWrite)` takes the writer slot without
/// blocking, surfacing Status::Conflict when a second writer exists.
/// NOT covered by snapshots: named/URL graphs (FROM GRAPH targets are
/// shared mutable state — in practice read-only after setup), and the
/// engine-level rand() stream, which overlaps across concurrent
/// engine-level statements (statements run through a Session draw from
/// that session's own seeded substream instead).
///
/// The default graph changes only through updating statements: its
/// starting state is bound at open (Database::Open / OpenInMemory), and
/// Snapshot() is the read-only view for inspection.
class CypherEngine {
 public:
  explicit CypherEngine(EngineOptions options = {});
  // Out-of-line: WorkerPool is incomplete here. Not movable — a
  // Database owns its engine through a unique_ptr.
  ~CypherEngine();

  /// The committed state of the implicit Cypher 9 global graph: a frozen
  /// snapshot (the one read statements execute against) that later
  /// commits never change. For inspection — counting, printing results;
  /// writes go through Execute or a Session write transaction.
  std::shared_ptr<const PropertyGraph> Snapshot() EXCLUDES(txn_mu_) {
    return ReadSnapshot();
  }
  /// Registers a named graph in the catalog (convenience form for setup
  /// code — examples, benches, tests).
  void RegisterGraph(const std::string& name, GraphPtr g) {
    catalog_.RegisterGraph(name, std::move(g));
  }
  /// Registers a graph under an external URL (FROM GRAPH ... AT "url").
  void RegisterUrl(const std::string& url, GraphPtr g) {
    catalog_.RegisterUrl(url, std::move(g));
  }
  /// Named-graph catalog (Cypher 10, §6). Internally locked.
  GraphCatalog& catalog() { return catalog_; }

  /// Opens a session: a single-threaded conversation with the engine
  /// that can group statements into explicit transactions. Any number of
  /// sessions may be open (each on its own thread); the engine must
  /// outlive every session it created.
  std::unique_ptr<Session> CreateSession();

  /// Parses, validates and runs a query. `params` supplies `$name`
  /// parameters (§2: built-in parameter support).
  Result<QueryResult> Execute(std::string_view query,
                              const ValueMap& params = {});

  /// Parses, validates and auto-parameterizes a query without running
  /// it. The handle is engine-independent and never stales: executing it
  /// re-plans through the plan cache as needed.
  Result<PreparedQuery> Prepare(std::string_view query);

  /// Runs a prepared query. `params` supplies user `$name` parameters;
  /// literals extracted at Prepare time are bound automatically (their
  /// synthetic `$_pN` names never collide with user parameters).
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const ValueMap& params = {});

  /// Serializes the committed state as a new recovery baseline and
  /// truncates the write-ahead log (no-op without durable storage).
  /// Takes the writer slot for the duration: waits for an active write
  /// transaction, and holds out new ones while the checkpoint file is
  /// written.
  Status Checkpoint();

  /// Waits out an active write transaction, detaches the WAL recorder
  /// and closes the bound storage engine; later write commits fail.
  /// No-op without storage.
  Status Close();

  /// Renders the physical plan for a read query (Volcano operators).
  Result<std::string> Explain(std::string_view query,
                              const ValueMap& params = {});

  /// Executes a read query on the Volcano runtime and renders the plan
  /// with per-operator row counters (PROFILE).
  Result<std::string> Profile(std::string_view query,
                              const ValueMap& params = {});

  const EngineOptions& options() const { return options_; }
  /// Reconfigures the engine (a single-owner operation: quiesce in-flight
  /// queries first). Returns the environment-override parse status — the
  /// same error every later Prepare/Execute would surface, so callers
  /// that check it fail fast at the reconfiguration site.
  Status set_options(EngineOptions options) {
    options_ = options;
    options_status_ = ApplyEnvOverrides(&options_);
    plan_cache_.set_capacity(options.plan_cache_capacity);
    return options_status_;
  }

  /// The plan cache (tests/tools may Clear(), resize or reset stats —
  /// its methods lock internally).
  PlanCache& plan_cache() { return plan_cache_; }
  /// Hit/miss/eviction/invalidation counters (snapshot by value: safe to
  /// call from a monitoring thread while queries execute).
  PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }
  /// Number of cached plans / configured bound (same contract as
  /// plan_cache_stats()).
  size_t plan_cache_size() const { return plan_cache_.size(); }
  size_t plan_cache_capacity() const { return plan_cache_.capacity(); }

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
    /// Pool tasks run by merge stages (pairwise sort merges + per-
    /// partition aggregation/DISTINCT merges) across those executions.
    uint64_t merge_tasks = 0;
    uint64_t sort_merges = 0;      // executions using parallel merge sort
    uint64_t agg_merges = 0;       // ... partitioned aggregation merge
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
  friend class Session;
  /// Database is the ONE caller allowed to bind a storage engine: every
  /// other component receives an engine whose durability is already
  /// decided.
  friend class Database;

  /// Installs the persistence layer: recovers the starting graph from
  /// `storage` (checkpoint + WAL replay for the durable engine, the
  /// caller's starting graph or a fresh one in memory), binds it as the
  /// default graph, and — when the engine is durable — attaches a
  /// WalRecorder so every committed primitive mutation is appended to
  /// the log before the commit is acknowledged. Called once, before any
  /// statement runs.
  Status BindStorage(std::unique_ptr<StorageEngine> storage);

  /// Applies the GQLITE_BATCH_SIZE / GQLITE_THREADS environment
  /// overrides and clamps programmatic values — shared by the
  /// constructor and set_options so reconfiguring an engine cannot
  /// silently drop the overrides CI relies on. A garbage override is
  /// remembered and surfaced as the error of every later
  /// Prepare/Execute.
  static Status ApplyEnvOverrides(EngineOptions* options);
  /// (Re)creates the fixed worker pool to match num_threads.
  WorkerPool* EnsureWorkerPool() EXCLUDES(pool_mu_);
  /// Folds one execution's counters into the cumulative stats.
  void FoldRunStats(const BatchStats& run, const ParallelRunStats& prun)
      EXCLUDES(stats_mu_);
  /// Counts one serial fallback of a parallel-eligible execution under
  /// its AnalyzeParallelCandidate reason (no-op on an empty reason).
  void RecordSerialFallback(const std::string& reason) EXCLUDES(stats_mu_);
  MatchOptions MakeMatchOptions() const;
  PlannerOptions MakePlannerOptions() const;
  /// Cache key suffix encoding every option that changes the compiled
  /// plan (mode, planner, morphism, bounds, expand strategy).
  std::string OptionsFingerprint() const;

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

  EngineOptions options_;
  /// Error from parsing the environment overrides (OK when clean).
  Status options_status_ = Status::OK();
  GraphCatalog catalog_;
  /// The live head of the default graph. Replaced only by BindStorage
  /// (at open) and RollbackWriter.
  GraphPtr graph_ GUARDED_BY(txn_mu_);
  PlanCache plan_cache_;

  /// Persistence layer (BindStorage). Null for engines constructed
  /// directly (legacy in-memory behavior, no recorder overhead at all).
  /// Mutating storage state is always done while HOLDING the writer
  /// slot, which serializes appends/checkpoints without a lock of its
  /// own.
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
  /// Catalog version at the last stale-entry sweep (see RunVolcano).
  uint64_t swept_catalog_version_ GUARDED_BY(stats_mu_) = 0;

  /// Guards the lazy (re)construction of the worker pool. The returned
  /// raw pointer stays valid until the next set_options/num_threads
  /// change — a single-owner operation (reconfiguration must quiesce
  /// in-flight queries first).
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
