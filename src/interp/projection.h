#ifndef GQLITE_INTERP_PROJECTION_H_
#define GQLITE_INTERP_PROJECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/eval/evaluator.h"
#include "src/frontend/ast.h"
#include "src/interp/table.h"

namespace gqlite {

/// A projection body's per-row expressions compiled against its input
/// fields (see CompiledExpr): the Volcano runtime's form. The helpers
/// below take one as an optional last argument. Without it, as in the
/// reference interpreter, they resolve every name per row.
struct CompiledProjection {
  /// Compiles `body` for input rows whose columns are `input_fields`: the
  /// child's columns for an aggregating body, the visible ones (planner
  /// '#' columns stripped) for a non-aggregating `*`.
  static CompiledProjection Compile(
      const ast::ProjectionBody& body,
      const std::vector<std::string>& input_fields);
  /// Binds every compiled expression (CompiledExpr::Bind).
  void Bind(const EvalContext& ctx);

  /// Per body item: the item over the input row. Empty for aggregating
  /// items, which are evaluated per group, by name.
  std::vector<CompiledExpr> items;
  /// Per aggregate, in AggregationState's slot order: its argument over
  /// the input row (empty for count(*)).
  std::vector<CompiledExpr> agg_args;
  /// Per ORDER BY key: the output column it names, or -1 when
  /// order_keys[i] evaluates it over the output row (and, for a
  /// non-aggregating body without DISTINCT, over its source row next).
  std::vector<int> order_cols;
  std::vector<CompiledExpr> order_keys;
  /// The aggregate arguments, pulled out of item clones; agg_args point
  /// into them.
  std::vector<ast::ExprPtr> agg_arg_exprs;
};

/// Evaluates a RETURN/WITH projection body over a driving table
/// (Figures 6/7 rules for RETURN/WITH, extended with the standard
/// DISTINCT / ORDER BY / SKIP / LIMIT sub-clauses and aggregation).
///
/// Aggregation follows §3: projection items that contain no aggregate
/// function act as implicit grouping keys; items containing aggregates are
/// evaluated once per group, with each aggregate sub-expression replaced
/// by its accumulated result and any remaining non-aggregate
/// sub-expressions evaluated against a representative row of the group
/// (SQL-style). On an empty input with no grouping keys, one row of
/// neutral aggregate values is produced (count → 0, collect → [], sum →
/// 0, min/max/avg → null).
///
/// ORDER BY sees the projected columns; for non-aggregating projections it
/// may also reference the pre-projection variables (output shadows input).
Result<Table> EvaluateProjection(const ast::ProjectionBody& body,
                                 const Table& input, const EvalContext& ctx,
                                 const CompiledProjection* compiled = nullptr);

/// True if any projection item contains an aggregate function call (the
/// body groups rather than maps).
bool ProjectionAggregates(const ast::ProjectionBody& body);

/// Grouping/aggregation state of one aggregating projection body — the
/// machinery behind EvaluateProjection's aggregate path, exposed so the
/// morsel-driven parallel runtime can aggregate per worker and merge.
///
/// Protocol: the body is Plan()ned once against its input fields and
/// Fork()ed into one state per partition (the parallel runtime's scan
/// ranges); each state Accumulate()s its share of the rows, and the merge
/// stage folds the partials together with MergeFrom() *in partition
/// (input) order*, keyed and keyless bodies alike. That order alone makes
/// collect(), DISTINCT first-occurrence, group output order and
/// representative-row choice identical to a serial run over the
/// concatenated input. Finish() then produces the grouped rows (one per
/// group, plus the neutral row for empty keyless input), to be
/// post-processed by ApplyProjectionTail.
class AggregationState {
 public:
  static Result<AggregationState> Plan(
      const ast::ProjectionBody& body,
      const std::vector<std::string>& input_fields);

  AggregationState(AggregationState&&) noexcept;
  AggregationState& operator=(AggregationState&&) noexcept;
  ~AggregationState();

  /// A fresh (empty-groups) state sharing this state's plan — item
  /// resolution and the rewritten aggregate expressions are immutable
  /// and shared, so a worker plans once and forks per partition.
  AggregationState Fork() const;

  /// Folds every row of `input` into the group accumulators. The table's
  /// columns must be positionally compatible with the fields this state
  /// was planned against.
  Status Accumulate(const Table& input, const EvalContext& ctx,
                    const CompiledProjection* compiled = nullptr);

  /// Folds one row (positionally compatible with the planned input
  /// fields) into the group accumulators — the streaming entry point: the
  /// batched and parallel runtimes feed morsels straight into the state
  /// without materializing the pre-aggregation table. `compiled`, when
  /// given, must be compiled from the same body and input fields.
  Status AccumulateRow(const ValueList& row, const EvalContext& ctx,
                       const CompiledProjection* compiled = nullptr);

  /// Absorbs a partial that accumulated a LATER partition of the input
  /// (merge in partition order). `other` must be planned from the same
  /// projection body; it is consumed. Groups new to this state append in
  /// `other`'s first-occurrence order; a group already here keeps its
  /// earlier representative row.
  Status MergeFrom(AggregationState&& other);

  /// Produces the grouped output rows (group keys in first-occurrence
  /// order). Terminal: the accumulators are consumed.
  Result<Table> Finish(const EvalContext& ctx);

 private:
  AggregationState();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The shared post-projection pipeline: DISTINCT, ORDER BY, SKIP / LIMIT
/// over already-projected rows. `source_rows` (optional, sized to
/// `output`) pairs each output row with the input row that produced it so
/// ORDER BY in non-aggregating projections can reference pre-projection
/// variables (`input` supplies their fields); aggregated output passes
/// nullptr.
Result<Table> ApplyProjectionTail(
    const ast::ProjectionBody& body, Table output,
    const std::vector<const ValueList*>* source_rows, const Table* input,
    const EvalContext& ctx, const CompiledProjection* compiled = nullptr);

/// The map stage of a NON-aggregating projection body over a chunk of
/// input rows: one output row per input row, with no tail (DISTINCT /
/// ORDER BY / SKIP / LIMIT) applied. When `keys` is non-null, each output
/// row's ORDER BY key row is computed in the same pass — against the
/// merged output-shadows-input environment, exactly as ApplyProjectionTail
/// computes it. Exposed so the parallel runtime can project and key scan
/// ranges on their workers and keep only sort keys (not pre-projection
/// rows) alive into the merge; ApplyProjectionTail shares the per-row key
/// helper below, so the two paths cannot drift.
Result<Table> ProjectRows(const ast::ProjectionBody& body, const Table& input,
                          const EvalContext& ctx, std::vector<ValueList>* keys,
                          const CompiledProjection* compiled = nullptr);

/// The ORDER BY key row of one projected row. A key expression that
/// textually matches a projected column resolves to that column (alias
/// resolution); others evaluate against the output row, with `source`
/// (optional) supplying the pre-projection variables. `schema` names the
/// output row's columns, then the source row's (output shadows input).
/// Pass source == nullptr for aggregated or post-DISTINCT rows, which
/// have no source pairing. With `compiled`, the column match was
/// resolved once, at compile time.
Result<ValueList> OrderKeysForRow(const ast::ProjectionBody& body,
                                  const std::vector<std::string>& schema,
                                  const ValueList& row, const ValueList* source,
                                  const EvalContext& ctx,
                                  const CompiledProjection* compiled =
                                      nullptr);

/// Three-way comparison of two precomputed ORDER BY key rows under
/// `body`'s sort spec (per-key ascending/descending over ValueOrder).
/// Returns <0 / 0 / >0. Ties (0) are broken by the caller on original
/// input position, which is what makes the parallel merge sort reproduce
/// std::stable_sort byte-for-byte.
int CompareOrderKeys(const ast::ProjectionBody& body, const ValueList& a,
                     const ValueList& b);

/// Evaluated SKIP/LIMIT bounds of a projection body: skip = 0 and
/// limit = -1 (unbounded) when absent. Errors carry the serial messages
/// ("SKIP must be a non-negative integer").
struct SkipLimitBounds {
  int64_t skip = 0;
  int64_t limit = -1;
};
Result<SkipLimitBounds> EvaluateSkipLimit(const ast::ProjectionBody& body,
                                          const EvalContext& ctx);

}  // namespace gqlite

#endif  // GQLITE_INTERP_PROJECTION_H_
