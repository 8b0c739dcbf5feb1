#ifndef GQLITE_PLAN_PLANNER_H_
#define GQLITE_PLAN_PLANNER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/graph/graph_catalog.h"
#include "src/plan/cost_model.h"
#include "src/plan/operators.h"

namespace gqlite {

/// Planner configuration. Every path chain is planned by
/// CostModel::DecideChain; the two overrides below pin its choices.
struct PlannerOptions {
  /// Per-hop physical-operator choice: kCost compares the adjacency
  /// Expand against the relationship-store hash join per step; the
  /// forced values pin one side (differential-harness override;
  /// kHashJoin is the E14 join-expand baseline).
  ExpandStrategy expand_strategy = ExpandStrategy::kCost;
  /// Anchor/expand-direction choice: kCost searches by estimated cost;
  /// kForceRight / kForceLeft pin the chain traversal direction.
  DirectionPolicy direction_policy = DirectionPolicy::kCost;
  /// Morsel capacity of the batched runtime (1 = tuple-at-a-time).
  /// Copied into each plan's ExecContext for pipeline breakers and used
  /// by ExecutePlan for the root drain.
  size_t batch_size = RowBatch::kDefaultCapacity;
  /// Worker count for morsel-driven parallel execution (src/exec/). With
  /// num_threads > 1 the planner builds one pipeline instance per worker
  /// for parallel-safe plans; 1 keeps today's serial path.
  size_t num_threads = 1;
  MatchOptions match;
};

/// Parallel-execution metadata of a compiled plan (filled by the planner
/// when PlannerOptions::num_threads > 1; see src/exec/parallel.h for the
/// execution model and the safety rules).
struct ParallelPlanInfo {
  /// True when worker instances were built and the plan may run on the
  /// morsel-driven parallel runtime.
  bool safe = false;
  /// Why the plan stays serial (surfaced by EXPLAIN); empty when safe.
  std::string reason;
  /// Human-readable merge-stage shape ("parallel merge sort",
  /// "partitioned aggregation merge", ...) for EXPLAIN/PROFILE; empty
  /// when serial.
  std::string merge_shape;
  /// Per worker instance (instance 0 is Plan::root, instance i > 0 is
  /// extra_roots[i-1]): the merge-point projection (the lowest pipeline
  /// breaker on the projection spine, or the root) and the
  /// morsel-partitioned driving scan of that instance's pipeline.
  std::vector<ProjectionOp*> projections;
  std::vector<PartitionedScan*> scans;
};

/// A compiled physical plan plus everything it borrows (execution
/// contexts, synthesized filter expressions). The analyzed AST must
/// outlive the plan.
struct Plan {
  OperatorPtr root;
  /// Additional per-worker pipeline instances (parallel execution only):
  /// structurally identical trees planned from the same AST — operators
  /// are stateful single-use pipelines, so each worker needs its own.
  std::vector<OperatorPtr> extra_roots;
  ParallelPlanInfo parallel;
  std::vector<std::unique_ptr<ExecContext>> contexts;
  std::vector<ast::ExprPtr> synthesized;
};

/// Compiles analyzed read-only queries to Volcano pipelines. Updating
/// queries and RETURN GRAPH run on the reference interpreter (the engine
/// routes them); patterns outside the pipeline subset fall back to the
/// MatcherOp inside an otherwise planned pipeline.
class Planner {
 public:
  Planner(CatalogRef catalog, GraphPtr graph, const ValueMap* params,
          PlannerOptions options, uint64_t* rand_state)
      : catalog_(std::move(catalog)),
        graph_(std::move(graph)),
        params_(params),
        options_(std::move(options)),
        rand_state_(rand_state) {}

  Result<Plan> PlanQuery(const ast::Query& q);

 private:
  struct PipelineState;

  Result<OperatorPtr> PlanSingle(const ast::SingleQuery& q, Plan* plan);
  /// Analyzes `plan` for parallel safety and, when safe, plans the
  /// num_threads - 1 extra worker instances (no-op at num_threads <= 1).
  Status BuildParallelInstances(const ast::Query& q, Plan* plan);
  Result<OperatorPtr> PlanMatch(const ast::MatchClause& m, OperatorPtr input,
                                Plan* plan, ExecContext* ctx);
  Status PlanChain(const ast::PathPattern& path, PipelineState* state,
                   Plan* plan, ExecContext* ctx);

  /// Places every pending WHERE/synthesized conjunct whose variables are
  /// all bound as a FilterOp at the current tip. PlanChain calls this
  /// after the anchor scan and after every expand step (filter pushdown
  /// into the chain, not just at chain boundaries). With `est` non-null
  /// the running cardinality estimate is multiplied by each filter's
  /// selectivity and annotated on the placed operator; `rel_vars` names
  /// the relationship columns so property equalities pick the right NDV
  /// sketch.
  void PlaceReadyFilters(PipelineState* state, ExecContext* ctx,
                         const GraphStatistics* stats,
                         const std::set<std::string>* rel_vars, double* est);

  ExecContext* MakeContext(Plan* plan, GraphPtr graph);

  CatalogRef catalog_;
  GraphPtr graph_;
  const ValueMap* params_;
  PlannerOptions options_;
  uint64_t* rand_state_;
  int fresh_counter_ = 0;
};

}  // namespace gqlite

#endif  // GQLITE_PLAN_PLANNER_H_
