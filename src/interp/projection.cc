#include "src/interp/projection.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/eval/aggregation.h"
#include "src/frontend/analyzer.h"
#include "src/value/value_compare.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

namespace {

/// One aggregate occurrence of a projection item: the function, DISTINCT,
/// and the argument (moved out of the item's rewritten clone; null for
/// count(*)).
struct AggSlot {
  std::string fn;      // "count", "sum", ... or "count(*)"
  bool distinct = false;
  ExprPtr arg;
};

/// Replaces each aggregate under the slot `e` with a VariableExpr("#aggN")
/// and appends its AggSlot to `slots`.
void ReplaceAggregates(ExprPtr& e, std::vector<AggSlot>* slots) {
  if (e->kind == Expr::Kind::kCountStar) {
    slots->push_back(AggSlot{"count(*)", false, nullptr});
  } else if (e->kind == Expr::Kind::kFunctionCall &&
             IsAggregateFunction(static_cast<FunctionCallExpr&>(*e).name)) {
    auto& f = static_cast<FunctionCallExpr&>(*e);
    slots->push_back(AggSlot{f.name, f.distinct, std::move(f.args[0])});
  } else {
    ForEachChildSlot(*e, [slots](ExprPtr& c) { ReplaceAggregates(c, slots); });
    return;
  }
  e = std::make_unique<VariableExpr>("#agg" +
                                     std::to_string(slots->size() - 1));
}

/// Clones `e` with its aggregate calls pulled out into `slots`. The clone
/// is evaluated per group against an environment that resolves "#aggN".
ExprPtr ExtractAggregates(const Expr& e, std::vector<AggSlot>* slots) {
  ExprPtr out = CloneExpr(e);
  ReplaceAggregates(out, slots);
  return out;
}

/// Environment that resolves "#aggN" placeholders, falling back to a base.
class AggEnvironment : public Environment {
 public:
  AggEnvironment(const Environment& base, const ValueList& agg_values)
      : base_(base), agg_values_(agg_values) {}
  const Value* Lookup(const std::string& name) const override {
    if (name.size() > 4 && name.compare(0, 4, "#agg") == 0) {
      size_t i = std::stoul(name.substr(4));
      if (i < agg_values_.size()) return &agg_values_[i];
    }
    return base_.Lookup(name);
  }

 private:
  const Environment& base_;
  const ValueList& agg_values_;
};

Result<int64_t> EvalCount(const Expr& e, const EvalContext& ctx,
                          const char* what) {
  MapEnvironment empty;
  GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(e, empty, ctx));
  if (!v.is_int() || v.AsInt() < 0) {
    return Status::EvaluationError(std::string(what) +
                                   " must be a non-negative integer");
  }
  return v.AsInt();
}

/// Index among the first `width` names of `schema` of the column that
/// `key` textually matches (alias resolution), or -1.
int OutputColumn(const std::vector<std::string>& schema, size_t width,
                 const Expr& key) {
  const std::string name = DerivedColumnName(key);
  for (size_t i = 0; i < width && i < schema.size(); ++i) {
    if (schema[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// The names OrderKeysForRow resolves against: `output`'s fields, then
/// `input`'s (when given). Built once per table, not once per row.
std::vector<std::string> OrderKeySchema(const Table& output,
                                        const Table* input) {
  std::vector<std::string> schema = output.fields();
  if (input != nullptr) {
    schema.insert(schema.end(), input->fields().begin(),
                  input->fields().end());
  }
  return schema;
}

}  // namespace

bool ProjectionAggregates(const ProjectionBody& body) {
  for (const auto& item : body.items) {
    if (ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

// ---- AggregationState -------------------------------------------------------

struct AggregationState::Impl {
  struct Item {
    std::string name;
    const Expr* expr = nullptr;  // original expression (null: copy field)
    int field_index = -1;        // input column when expr == nullptr
    int body_index = -1;         // position in body.items (expr != nullptr)
    bool aggregating = false;
    ExprPtr rewritten;           // with aggregates extracted (if aggregating)
    std::vector<AggSlot> slots;  // this item's aggregate sub-expressions
  };
  /// The immutable part of the plan (item resolution, the rewritten
  /// aggregate expressions, the output schema) — shared between Fork()ed
  /// states so per-partition states pay no re-planning.
  struct Shape {
    std::vector<std::string> input_fields;
    std::vector<Item> items;
    std::vector<std::string> out_fields;
    bool has_keys = false;
  };
  /// One group, in first-occurrence order. The representative row is
  /// owned (partitions outlive their input tables under the parallel
  /// merge) and is the group's FIRST input row, as in the serial run.
  struct Group {
    ValueList key;
    ValueList representative;
    std::vector<std::unique_ptr<Aggregator>> aggs;
  };

  std::shared_ptr<const Shape> shape;
  std::vector<Group> groups;
  std::unordered_map<ValueList, size_t, RowEquivalenceHash, RowEquivalenceEq>
      index;
  ValueList key_scratch;  // reused per row; copied only on new groups

  Result<std::vector<std::unique_ptr<Aggregator>>> MakeGroupAggs() const {
    std::vector<std::unique_ptr<Aggregator>> aggs;
    for (const auto& it : shape->items) {
      for (const auto& slot : it.slots) {
        GQL_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                             MakeAggregator(slot.fn, slot.distinct));
        aggs.push_back(std::move(agg));
      }
    }
    return aggs;
  }

  /// Builds the row's grouping key (the values of the non-aggregating
  /// items) into `key`.
  Status BuildKey(const ValueList& row, const Environment& env,
                  const EvalContext& ctx, const CompiledProjection* compiled,
                  ValueList* key) const {
    key->clear();
    for (const auto& it : shape->items) {
      if (it.aggregating) continue;
      if (it.expr == nullptr) {
        key->push_back(row[it.field_index]);
      } else if (compiled != nullptr) {
        GQL_ASSIGN_OR_RETURN(const Value* v,
                             compiled->items[it.body_index].Evaluate(row));
        key->push_back(*v);
      } else {
        GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*it.expr, env, ctx));
        key->push_back(std::move(v));
      }
    }
    return Status::OK();
  }

  /// Folds one row's aggregate arguments into a group's accumulators.
  Status AccumulateSlots(Group& g, const ValueList& row,
                         const Environment& env, const EvalContext& ctx,
                         const CompiledProjection* compiled) {
    static const Value kRowMarker = Value::Bool(true);  // count(*)'s input
    size_t slot_idx = 0;
    Value scratch;
    for (const auto& it : shape->items) {
      for (const auto& slot : it.slots) {
        const Value* v = &kRowMarker;
        if (slot.arg != nullptr && compiled != nullptr) {
          GQL_ASSIGN_OR_RETURN(v, compiled->agg_args[slot_idx].Evaluate(row));
        } else if (slot.arg != nullptr) {
          GQL_ASSIGN_OR_RETURN(scratch, EvaluateExpr(*slot.arg, env, ctx));
          v = &scratch;
        }
        GQL_RETURN_IF_ERROR(g.aggs[slot_idx]->Accumulate(*v));
        ++slot_idx;
      }
    }
    return Status::OK();
  }
};

AggregationState::AggregationState() : impl_(std::make_unique<Impl>()) {}
AggregationState::AggregationState(AggregationState&&) noexcept = default;
AggregationState& AggregationState::operator=(AggregationState&&) noexcept =
    default;
AggregationState::~AggregationState() = default;

Result<AggregationState> AggregationState::Plan(
    const ProjectionBody& body, const std::vector<std::string>& input_fields) {
  AggregationState state;
  auto shape = std::make_shared<Impl::Shape>();
  shape->input_fields = input_fields;
  // `*` expands to the visible input fields, in order (planner-hidden
  // '#...' columns are internal and never projected).
  if (body.star) {
    for (size_t i = 0; i < input_fields.size(); ++i) {
      const std::string& f = input_fields[i];
      if (!f.empty() && f[0] == '#') continue;
      Impl::Item it;
      it.name = f;
      it.field_index = static_cast<int>(i);
      shape->items.push_back(std::move(it));  // expr == nullptr: copy field
    }
  }
  for (size_t i = 0; i < body.items.size(); ++i) {
    const ReturnItem& item = body.items[i];
    Impl::Item it;
    it.name = item.alias ? *item.alias : DerivedColumnName(*item.expr);
    it.expr = item.expr.get();
    it.body_index = static_cast<int>(i);
    it.aggregating = ContainsAggregate(*item.expr);
    if (it.aggregating) {
      it.rewritten = ExtractAggregates(*item.expr, &it.slots);
    }
    shape->items.push_back(std::move(it));
  }
  for (const auto& it : shape->items) {
    shape->out_fields.push_back(it.name);
    if (!it.aggregating) shape->has_keys = true;
  }
  state.impl_->shape = std::move(shape);
  return state;
}

AggregationState AggregationState::Fork() const {
  AggregationState state;
  state.impl_->shape = impl_->shape;  // planning is shared, groups are not
  return state;
}

Status AggregationState::Accumulate(const Table& input,
                                    const EvalContext& ctx,
                                    const CompiledProjection* compiled) {
  for (const auto& row : input.rows()) {
    GQL_RETURN_IF_ERROR(AccumulateRow(row, ctx, compiled));
  }
  return Status::OK();
}

Status AggregationState::AccumulateRow(const ValueList& row,
                                       const EvalContext& ctx,
                                       const CompiledProjection* compiled) {
  Impl& im = *impl_;
  SchemaRowEnvironment env(im.shape->input_fields, row);
  if (!im.shape->has_keys) {
    // Global aggregation: every row lands in the single group — no key to
    // build, hash or probe.
    if (im.groups.empty()) {
      Impl::Group g;
      g.representative = row;
      GQL_ASSIGN_OR_RETURN(g.aggs, im.MakeGroupAggs());
      im.groups.push_back(std::move(g));
    }
    return im.AccumulateSlots(im.groups[0], row, env, ctx, compiled);
  }
  // Group by the values of the non-aggregating items (§3: "the first
  // expression, r, is a non-aggregating expression and therefore acts
  // as an implicit grouping key"). The key is built in a reused scratch
  // buffer; the existing-group path allocates nothing.
  GQL_RETURN_IF_ERROR(im.BuildKey(row, env, ctx, compiled, &im.key_scratch));
  auto pos = im.index.find(im.key_scratch);
  if (pos == im.index.end()) {
    Impl::Group g;
    g.key = im.key_scratch;
    g.representative = row;
    GQL_ASSIGN_OR_RETURN(g.aggs, im.MakeGroupAggs());
    pos = im.index.emplace(im.key_scratch, im.groups.size()).first;
    im.groups.push_back(std::move(g));
  }
  return im.AccumulateSlots(im.groups[pos->second], row, env, ctx, compiled);
}

Status AggregationState::MergeFrom(AggregationState&& other) {
  Impl& im = *impl_;
  Impl& oim = *other.impl_;
  if (!im.shape->has_keys) {
    // Keyless states bypass the group index (single group, no keys); fold
    // the other state's accumulators directly.
    if (!oim.groups.empty()) {
      if (im.groups.empty()) {
        im.groups = std::move(oim.groups);
      } else {
        Impl::Group& g = im.groups[0];
        Impl::Group& og = oim.groups[0];
        for (size_t a = 0; a < g.aggs.size(); ++a) {
          GQL_ASSIGN_OR_RETURN(Value partial, og.aggs[a]->ExportPartial());
          GQL_RETURN_IF_ERROR(g.aggs[a]->MergePartial(partial));
        }
      }
    }
    oim.groups.clear();
    oim.index.clear();
    return Status::OK();
  }
  // Walking the later partition's groups in ITS first-occurrence order
  // keeps the merged group order equal to first occurrence over the
  // concatenated input; an already-known group keeps its (earlier)
  // representative.
  for (Impl::Group& og : oim.groups) {
    auto [pos, inserted] = im.index.try_emplace(og.key, im.groups.size());
    if (inserted) {
      im.groups.push_back(std::move(og));
      continue;
    }
    Impl::Group& g = im.groups[pos->second];
    for (size_t a = 0; a < g.aggs.size(); ++a) {
      GQL_ASSIGN_OR_RETURN(Value partial, og.aggs[a]->ExportPartial());
      GQL_RETURN_IF_ERROR(g.aggs[a]->MergePartial(partial));
    }
  }
  oim.groups.clear();
  oim.index.clear();
  return Status::OK();
}

Result<Table> AggregationState::Finish(const EvalContext& ctx) {
  Impl& im = *impl_;
  // Global aggregation over an empty input: one row of neutral aggregate
  // values — but only when there are no grouping keys.
  if (im.groups.empty() && !im.shape->has_keys) {
    Impl::Group g;
    GQL_ASSIGN_OR_RETURN(g.aggs, im.MakeGroupAggs());
    im.groups.push_back(std::move(g));
  }

  Table output(im.shape->out_fields);
  for (Impl::Group& g : im.groups) {
    ValueList agg_values;
    for (auto& agg : g.aggs) {
      GQL_ASSIGN_OR_RETURN(Value v, agg->Finish());
      agg_values.push_back(std::move(v));
    }
    // The neutral group of an empty keyless input has no representative;
    // its empty row resolves nothing.
    SchemaRowEnvironment rep_env(im.shape->input_fields, g.representative);
    ValueList out_row;
    size_t key_idx = 0;
    size_t slot_base = 0;
    for (const auto& it : im.shape->items) {
      if (!it.aggregating) {
        out_row.push_back(g.key[key_idx++]);
      } else {
        // Offset this item's placeholders into the global slot vector:
        // placeholders were numbered per item starting at its base.
        ValueList local(agg_values.begin() + slot_base,
                        agg_values.begin() + slot_base + it.slots.size());
        AggEnvironment item_env(rep_env, local);
        GQL_ASSIGN_OR_RETURN(Value v,
                             EvaluateExpr(*it.rewritten, item_env, ctx));
        out_row.push_back(std::move(v));
        slot_base += it.slots.size();
      }
    }
    output.AddRow(std::move(out_row));
  }
  im.groups.clear();
  im.index.clear();
  return output;
}

// ---- Post-projection tail ---------------------------------------------------

Result<ValueList> OrderKeysForRow(const ProjectionBody& body,
                                  const std::vector<std::string>& schema,
                                  const ValueList& row, const ValueList* source,
                                  const EvalContext& ctx,
                                  const CompiledProjection* compiled) {
  // The output row's columns come first, so they shadow the input's.
  SchemaRowEnvironment env(schema, row, row.size(), source);
  ValueList keys;
  keys.reserve(body.order_by.size());
  for (size_t k = 0; k < body.order_by.size(); ++k) {
    const Expr& key = *body.order_by[k].expr;
    // An ORDER BY expression that textually matches a projected column
    // (e.g. ORDER BY p.acmid after RETURN p.acmid, count(*)) refers to
    // that column, like Cypher's alias resolution.
    int col = compiled != nullptr ? compiled->order_cols[k]
                                  : OutputColumn(schema, row.size(), key);
    if (col >= 0) {
      keys.push_back(row[col]);
    } else if (compiled != nullptr) {
      GQL_ASSIGN_OR_RETURN(const Value* v,
                           compiled->order_keys[k].Evaluate(row, source));
      keys.push_back(*v);
    } else {
      GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(key, env, ctx));
      keys.push_back(std::move(v));
    }
  }
  return keys;
}

int CompareOrderKeys(const ProjectionBody& body, const ValueList& a,
                     const ValueList& b) {
  for (size_t i = 0; i < body.order_by.size(); ++i) {
    int c = ValueOrder(a[i], b[i]);
    if (c != 0) return body.order_by[i].ascending ? c : -c;
  }
  return 0;
}

Result<SkipLimitBounds> EvaluateSkipLimit(const ProjectionBody& body,
                                          const EvalContext& ctx) {
  SkipLimitBounds b;
  if (body.skip) {
    GQL_ASSIGN_OR_RETURN(b.skip, EvalCount(*body.skip, ctx, "SKIP"));
  }
  if (body.limit) {
    GQL_ASSIGN_OR_RETURN(b.limit, EvalCount(*body.limit, ctx, "LIMIT"));
  }
  return b;
}

Result<Table> ApplyProjectionTail(
    const ProjectionBody& body, Table output,
    const std::vector<const ValueList*>* source_rows, const Table* input,
    const EvalContext& ctx, const CompiledProjection* compiled) {
  if (body.distinct) {
    // ε after projection; source-row pairing is dropped (ORDER BY then
    // sees only the projected columns, as in Cypher).
    output = output.Deduplicated();
    source_rows = nullptr;
  }

  // ORDER BY.
  if (!body.order_by.empty()) {
    struct Keyed {
      ValueList row;
      ValueList keys;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(output.NumRows());
    const std::vector<std::string> schema = OrderKeySchema(output, input);
    for (size_t i = 0; i < output.NumRows(); ++i) {
      ValueList& row = output.mutable_rows()[i];
      const ValueList* source =
          source_rows != nullptr && i < source_rows->size()
              ? (*source_rows)[i]
              : nullptr;
      GQL_ASSIGN_OR_RETURN(
          ValueList keys,
          OrderKeysForRow(body, schema, row, source, ctx, compiled));
      // Keys are computed; the row itself can move out of the table.
      keyed.push_back(Keyed{std::move(row), std::move(keys)});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       return CompareOrderKeys(body, a.keys, b.keys) < 0;
                     });
    Table sorted(output.fields());
    for (auto& k : keyed) sorted.AddRow(std::move(k.row));
    output = std::move(sorted);
  }

  // SKIP / LIMIT.
  if (body.skip || body.limit) {
    GQL_ASSIGN_OR_RETURN(SkipLimitBounds bounds, EvaluateSkipLimit(body, ctx));
    Table limited(output.fields());
    int64_t n = static_cast<int64_t>(output.NumRows());
    int64_t end = bounds.limit < 0 ? n : std::min(n, bounds.skip + bounds.limit);
    for (int64_t i = bounds.skip; i < end; ++i) {
      limited.AddRow(std::move(output.mutable_rows()[i]));
    }
    output = std::move(limited);
  }

  return output;
}

// ---- EvaluateProjection -----------------------------------------------------

Result<Table> ProjectRows(const ProjectionBody& body, const Table& input,
                          const EvalContext& ctx, std::vector<ValueList>* keys,
                          const CompiledProjection* compiled) {
  // Non-aggregating map: one output row per input row. `*` expands to all
  // input fields (in order).
  std::vector<int> star_cols;
  std::vector<std::string> out_fields;
  if (body.star) {
    for (const auto& f : input.fields()) {
      star_cols.push_back(input.FieldIndex(f));
      out_fields.push_back(f);
    }
  }
  for (const auto& item : body.items) {
    out_fields.push_back(item.alias ? *item.alias
                                    : DerivedColumnName(*item.expr));
  }
  Table output(out_fields);
  const std::vector<std::string> key_schema =
      keys != nullptr ? OrderKeySchema(output, &input)
                      : std::vector<std::string>();

  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    ValueList out_row;
    out_row.reserve(out_fields.size());
    for (int c : star_cols) out_row.push_back(row[c]);
    for (size_t i = 0; i < body.items.size(); ++i) {
      if (compiled != nullptr) {
        GQL_ASSIGN_OR_RETURN(const Value* v, compiled->items[i].Evaluate(row));
        out_row.push_back(*v);
      } else {
        GQL_ASSIGN_OR_RETURN(Value v,
                             EvaluateExpr(*body.items[i].expr, env, ctx));
        out_row.push_back(std::move(v));
      }
    }
    if (keys != nullptr) {
      // Same-pass keying: the output row's ORDER BY keys against the
      // merged output-shadows-input environment, before the source row
      // goes out of reach of the merge stage.
      GQL_ASSIGN_OR_RETURN(
          ValueList k,
          OrderKeysForRow(body, key_schema, out_row, &row, ctx, compiled));
      keys->push_back(std::move(k));
    }
    output.AddRow(std::move(out_row));
  }
  return output;
}

Result<Table> EvaluateProjection(const ProjectionBody& body,
                                 const Table& input, const EvalContext& ctx,
                                 const CompiledProjection* compiled) {
  if (ProjectionAggregates(body)) {
    GQL_ASSIGN_OR_RETURN(AggregationState state,
                         AggregationState::Plan(body, input.fields()));
    GQL_RETURN_IF_ERROR(state.Accumulate(input, ctx, compiled));
    GQL_ASSIGN_OR_RETURN(Table output, state.Finish(ctx));
    return ApplyProjectionTail(body, std::move(output), nullptr, &input, ctx,
                               compiled);
  }

  GQL_ASSIGN_OR_RETURN(Table output,
                       ProjectRows(body, input, ctx, nullptr, compiled));
  // Track the input row that produced each output row (for ORDER BY on
  // pre-projection variables).
  std::vector<const ValueList*> source_rows;
  source_rows.reserve(input.NumRows());
  for (const auto& row : input.rows()) source_rows.push_back(&row);
  return ApplyProjectionTail(body, std::move(output), &source_rows, &input,
                             ctx, compiled);
}

// ---- CompiledProjection -----------------------------------------------------

namespace {

/// The output column names of a body over input columns `input_fields`:
/// the visible (non-'#') input columns for `*`, then one per item.
std::vector<std::string> ProjectionOutputFields(
    const ProjectionBody& body, const std::vector<std::string>& input_fields) {
  std::vector<std::string> out;
  if (body.star) {
    for (const auto& f : input_fields) {
      if (f.empty() || f[0] != '#') out.push_back(f);
    }
  }
  for (const auto& item : body.items) {
    out.push_back(item.alias ? *item.alias : DerivedColumnName(*item.expr));
  }
  return out;
}

}  // namespace

CompiledProjection CompiledProjection::Compile(
    const ProjectionBody& body, const std::vector<std::string>& input_fields) {
  CompiledProjection c;
  const bool aggregates = ProjectionAggregates(body);
  for (const auto& item : body.items) {
    if (!ContainsAggregate(*item.expr)) {
      c.items.push_back(CompiledExpr::Compile(*item.expr, input_fields));
      continue;
    }
    c.items.emplace_back();
    // The same extraction AggregationState::Plan runs, so the arguments
    // line up with its slots.
    std::vector<AggSlot> slots;
    ExtractAggregates(*item.expr, &slots);
    for (AggSlot& slot : slots) {
      c.agg_args.push_back(slot.arg != nullptr
                               ? CompiledExpr::Compile(*slot.arg, input_fields)
                               : CompiledExpr());
      c.agg_arg_exprs.push_back(std::move(slot.arg));
    }
  }
  // ORDER BY sees the output row, and the source row after it only where
  // ApplyProjectionTail pairs them: no aggregation, no DISTINCT.
  std::vector<std::string> out_fields =
      ProjectionOutputFields(body, input_fields);
  const std::vector<std::string> no_fields;
  const std::vector<std::string>& source_fields =
      aggregates || body.distinct ? no_fields : input_fields;
  for (const auto& o : body.order_by) {
    auto it = std::find(out_fields.begin(), out_fields.end(),
                        DerivedColumnName(*o.expr));
    c.order_cols.push_back(
        it == out_fields.end() ? -1 : static_cast<int>(it - out_fields.begin()));
    c.order_keys.push_back(
        CompiledExpr::Compile(*o.expr, out_fields, source_fields));
  }
  return c;
}

void CompiledProjection::Bind(const EvalContext& ctx) {
  for (auto* group : {&items, &agg_args, &order_keys}) {
    for (CompiledExpr& e : *group) e.Bind(ctx);
  }
}

}  // namespace gqlite
