#ifndef GQLITE_EXEC_PARALLEL_H_
#define GQLITE_EXEC_PARALLEL_H_

#include <cstddef>
#include <string>

#include "src/common/sync.h"

#include "src/exec/worker_pool.h"
#include "src/plan/planner.h"

namespace gqlite {

/// Morsel-driven parallel execution of compiled plans (ROADMAP's "worker
/// pool stealing morsel boundaries"). The model:
///
///  * The planner builds one pipeline INSTANCE per worker (structurally
///    identical operator trees over the same AST — operators are
///    stateful single-use pipelines, so workers must not share them).
///  * The driving scan of each instance is morsel-partitioned: a shared
///    MorselDispatcher splits the scan domain (node slots / label-index
///    entries) into contiguous ranges that workers claim atomically —
///    work stealing falls out of the shared claim counter.
///  * A worker binds its instance's scan to the claimed range, re-Opens
///    the pipeline, drains it, and buffers the result PER RANGE.
///  * The MERGE POINT is the lowest pipeline breaker on the projection
///    spine (a projection with aggregation / DISTINCT / ORDER BY / SKIP /
///    LIMIT), or the root projection when no breaker exists. Everything
///    below it distributes over the scan partition; everything above it
///    resumes serially on the merged output (ProjectionOp::PreloadResult),
///    so an intermediate WITH breaker no longer forces the whole plan
///    serial.
///  * The merge stage has one shape per breaker kind, always reproducing
///    the serial output byte-for-byte:
///      - ORDER BY: per-range local sorts on the workers, ordered by
///        (keys, range, row) — a STRICT total order, so the serial
///        pairwise merge of the runs reproduces std::stable_sort exactly;
///        SKIP/LIMIT push a top-K bound into the local sorts and merges.
///      - aggregation, keyed or keyless: each range accumulates into its
///        own forked AggregationState, and the merge folds the partials
///        with MergeFrom in range order. That order alone keeps the
///        serial first-occurrence group order and representative rows.
///      - DISTINCT: rows hash-partition on the whole row (RowHash — the
///        equivalence-consistent hash of the seen-sets), so each worker
///        runs one independent seen-set on the pool; survivors
///        interleave back by (range, row), keeping the serial first
///        occurrence. An ORDER BY above it sorts the deduped rows once.
///    One DELIBERATE semantic edge survives from the partial-aggregation
///    model: sum() over int64 adds in chunks, so a serial run whose
///    running sum overflows mid-stream (while the true total is
///    representable) can raise where the chunked run returns the total.
///    Cypher leaves accumulation order unspecified; the strict guarantee
///    kept is one-sided — any overflow the MERGE itself produces still
///    raises EvaluationError, never wraps.
///
/// Plans qualify when every operator below the merge point distributes
/// over a partition of the driving scan (per-row operators: Expand,
/// Filter, Unwind, Apply, simple WITH) and the query calls no
/// nondeterministic function (rand() mutates engine-shared PRNG state).
/// Everything else — UNION, OPTIONAL MATCH at the driving position,
/// matcher-fallback driving patterns, updating queries
/// (interpreter-only) — stays on the serial runtime.

/// One contiguous chunk of a partitioned scan domain.
struct ScanMorsel {
  size_t index = 0;  // position in range order (deterministic merge key)
  size_t begin = 0;
  size_t end = 0;
};

/// Splits `domain` positions into ceil(domain/chunk) contiguous morsels
/// claimed atomically by workers. Thread-safe; claim order is first-come.
class MorselDispatcher {
 public:
  MorselDispatcher(size_t domain, size_t chunk)
      : domain_(domain), chunk_(chunk == 0 ? 1 : chunk) {
    count_ = domain_ == 0 ? 0 : (domain_ + chunk_ - 1) / chunk_;
  }

  /// Claims the next morsel; false once the domain is exhausted.
  bool Next(ScanMorsel* out) {
    size_t i = next_.FetchAdd(1);
    if (i >= count_) return false;
    out->index = i;
    out->begin = i * chunk_;
    out->end = out->begin + chunk_ < domain_ ? out->begin + chunk_ : domain_;
    return true;
  }

  size_t num_morsels() const { return count_; }
  size_t chunk() const { return chunk_; }

 private:
  size_t domain_;
  size_t chunk_;
  size_t count_;
  /// The shared claim counter — work stealing falls out of FetchAdd.
  AtomicCounter next_;
};

/// Scan-range chunk for `domain` positions across `workers` workers:
/// roughly eight morsels per worker (steal granularity) with a floor that
/// keeps tiny domains from paying a pipeline re-Open per handful of
/// nodes.
size_t MorselChunk(size_t domain, size_t workers);

/// Result of analyzing one compiled operator tree for parallel
/// execution: the merge-point projection (the lowest pipeline breaker on
/// the projection spine, or the root) and the partitioned driving scan,
/// or the reason the plan stays serial.
struct ParallelCandidate {
  bool ok = false;
  std::string reason;
  ProjectionOp* projection = nullptr;
  PartitionedScan* scan = nullptr;
  /// Human-readable merge-stage shape ("parallel merge sort",
  /// "aggregation merge", ...) for EXPLAIN/PROFILE.
  std::string merge_shape;
  /// True when the merge point is an intermediate WITH (operators above
  /// it resume serially on the merged output).
  bool merge_below_root = false;
};
ParallelCandidate AnalyzeParallelCandidate(Operator* root);

/// True if any expression in the query calls rand() — which both mutates
/// engine-shared PRNG state (a data race across workers) and makes
/// results depend on evaluation order.
bool QueryCallsNondeterministicFunction(const ast::Query& q);

/// Per-execution counters surfaced through PROFILE and gqlsh :stats.
struct ParallelRunStats {
  size_t workers = 0;
  size_t morsels = 0;
  /// Which parallel merge stages this execution ran.
  bool sort_merge = false;
  bool agg_merge = false;
  bool partitioned_distinct = false;
};

/// Executes a parallel-safe plan (Plan::parallel.safe) on `pool`. The
/// run uses min(pool->size() + 1, plan instances) workers, the calling
/// thread included: extra pool threads idle and extra instances go
/// unused. `stats` accumulates rows/batches drained across all workers.
Result<Table> ExecutePlanParallel(Plan* plan, WorkerPool* pool,
                                  size_t batch_size,
                                  BatchStats* stats = nullptr,
                                  ParallelRunStats* pstats = nullptr);

}  // namespace gqlite

#endif  // GQLITE_EXEC_PARALLEL_H_
