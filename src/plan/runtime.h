#ifndef GQLITE_PLAN_RUNTIME_H_
#define GQLITE_PLAN_RUNTIME_H_

#include "src/interp/row_batch.h"
#include "src/interp/table.h"
#include "src/plan/planner.h"

namespace gqlite {

/// Executes a compiled plan: Open the root and drain it morsel by morsel
/// into a table. The runtime is batched ("morsel-at-a-time") Volcano
/// iteration: operators keep the pull-based tree of §2's "Neo4j
/// implementation", but each NextBatch call moves a RowBatch of up to
/// `batch_size` rows (selection vectors carry filter results), amortizing
/// virtual dispatch across the morsel. `batch_size == 1` degenerates to
/// classic tuple-at-a-time execution — the escape hatch the benches
/// expose as `--no-batch` and tests drive via GQLITE_BATCH_SIZE=1.
/// `stats` (optional) accumulates rows/batches the root produced.
Result<Table> ExecutePlan(Plan* plan,
                          size_t batch_size = RowBatch::kDefaultCapacity,
                          BatchStats* stats = nullptr);

/// Resolves the effective morsel capacity for `configured`: applies the
/// GQLITE_BATCH_SIZE environment override (how CI drives every executor
/// at batch size 1) and clamps the programmatic value to [1, 2^20] — a
/// morsel bounds the per-batch working set (batch buffers, pending
/// var-length expansions), and batching gains nothing past cache sizes.
/// A garbage override (non-numeric, non-positive, overflowing, or above
/// the cap) is an InvalidArgument error naming the variable — NOT a
/// silent clamp; CI relying on the override must learn when it is
/// ineffective. Every entry point that builds execution options
/// (Database::Open, test harnesses that plan and drain directly) must
/// route its batch size through this so the override means the same
/// thing everywhere.
Result<size_t> EffectiveBatchSize(size_t configured);

/// Same contract for the worker count of the morsel-driven parallel
/// runtime: applies the GQLITE_THREADS environment override (how the
/// TSan CI leg drives every engine at 4 workers), clamps the
/// programmatic value to [1, 256], and rejects garbage overrides with a
/// clear error instead of silently clamping.
Result<size_t> EffectiveNumThreads(size_t configured);

/// Plans a query and renders the operator tree (EXPLAIN), headed by the
/// execution model line (batched runtime + morsel size) and — when
/// `options.num_threads > 1` — whether the plan runs on the parallel
/// runtime or why it stays serial.
Result<std::string> ExplainQuery(CatalogRef catalog, GraphPtr graph,
                                 const ValueMap* params,
                                 const PlannerOptions& options,
                                 uint64_t* rand_state, const ast::Query& q);

}  // namespace gqlite

#endif  // GQLITE_PLAN_RUNTIME_H_
