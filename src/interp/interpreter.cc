#include "src/interp/interpreter.h"

#include "src/interp/projection.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

EvalContext Interpreter::MakeEvalContext() const {
  EvalContext ctx;
  ctx.graph = graph_.get();
  ctx.parameters = params_;
  ctx.rand_state = rand_state_;
  // Pattern predicates (existential subqueries) re-enter the matcher with
  // early exit. Captured by value where needed: the context must outlive
  // only the clause evaluation.
  const PropertyGraph* g = graph_.get();
  const MatchOptions* opts = &options_.match;
  const ValueMap* params = params_;
  uint64_t* rand_state = rand_state_;
  ctx.pattern_predicate = [g, opts, params, rand_state](
                              const Pattern& p,
                              const Environment& env) -> Result<bool> {
    EvalContext inner;
    inner.graph = g;
    inner.parameters = params;
    inner.rand_state = rand_state;
    // Nested pattern predicates inside pattern property maps are
    // disallowed (no hook installed).
    return ExistsMatch(p, *g, env, inner, *opts);
  };
  return ctx;
}

Result<Table> Interpreter::ExecuteQuery(const Query& q) {
  GQL_ASSIGN_OR_RETURN(Table result, ExecuteSingle(q.parts[0]));
  for (size_t i = 1; i < q.parts.size(); ++i) {
    GQL_ASSIGN_OR_RETURN(Table next, ExecuteSingle(q.parts[i]));
    if (result.fields() != next.fields()) {
      return Status::SemanticError(
          "UNION parts must produce the same columns");
    }
    result.Append(next);
    if (!q.union_all[i - 1]) result = result.Deduplicated();
  }
  return result;
}

Result<Table> Interpreter::ExecuteSingle(const SingleQuery& q) {
  // output(Q, G) = ⟦Q⟧G(T()) — start from the unit table (Figure 6).
  Table t = Table::Unit();
  for (const auto& clause : q.clauses) {
    GQL_ASSIGN_OR_RETURN(t, ExecuteClause(*clause, std::move(t)));
  }
  return t;
}

Result<Table> Interpreter::ExecuteClause(const Clause& c, Table input) {
  switch (c.kind) {
    case Clause::Kind::kMatch:
      return ExecMatch(static_cast<const MatchClause&>(c), input);
    case Clause::Kind::kWith: {
      const auto& w = static_cast<const WithClause&>(c);
      EvalContext ctx = MakeEvalContext();
      GQL_ASSIGN_OR_RETURN(Table projected,
                           EvaluateProjection(w.body, input, ctx));
      if (!w.where) return projected;
      // [[WITH ret WHERE expr]] = [[WHERE expr]]([[WITH ret]](T)).
      Table filtered(projected.fields());
      for (const auto& row : projected.rows()) {
        SchemaRowEnvironment env(projected.fields(), row);
        GQL_ASSIGN_OR_RETURN(Tri keep, EvaluatePredicate(*w.where, env, ctx));
        if (keep == Tri::kTrue) filtered.AddRow(row);
      }
      return filtered;
    }
    case Clause::Kind::kReturn: {
      const auto& r = static_cast<const ReturnClause&>(c);
      EvalContext ctx = MakeEvalContext();
      return EvaluateProjection(r.body, input, ctx);
    }
    case Clause::Kind::kUnwind:
      return ExecUnwind(static_cast<const UnwindClause&>(c), input);
    case Clause::Kind::kFromGraph:
      return ExecFromGraph(static_cast<const FromGraphClause&>(c),
                           std::move(input));
    case Clause::Kind::kReturnGraph:
      return ExecReturnGraph(static_cast<const ReturnGraphClause&>(c), input);
    case Clause::Kind::kCreate:
    case Clause::Kind::kDelete:
    case Clause::Kind::kSet:
    case Clause::Kind::kRemove:
    case Clause::Kind::kMerge:
      if (!update_handler_) {
        return Status::Unimplemented(
            "updating clauses are not enabled in this interpreter");
      }
      return update_handler_(c, std::move(input));
  }
  return Status::Internal("unhandled clause kind");
}

Result<Table> Interpreter::ExecMatch(const MatchClause& m,
                                     const Table& input) {
  EvalContext ctx = MakeEvalContext();

  // free(π̄) − dom(u): new fields introduced by this MATCH (identical for
  // every input row because tables are uniform).
  Table probe(input.fields());
  std::vector<std::string> new_cols;
  {
    ValueList empty_row(input.NumFields(), Value::Null());
    SchemaRowEnvironment env(input.fields(), empty_row);
    new_cols = NewPatternColumns(m.pattern, env);
  }
  std::vector<std::string> out_fields = input.fields();
  for (const auto& c : new_cols) out_fields.push_back(c);
  Table output(out_fields);

  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    size_t before = output.NumRows();
    Status st = MatchPattern(
        m.pattern, *graph_, env, ctx, options_.match, new_cols,
        [&](const BindingRow& bindings) -> Result<bool> {
          ValueList out_row = row;
          for (const Value& v : bindings) out_row.push_back(v);
          if (m.where) {
            SchemaRowEnvironment where_env(output.fields(), out_row);
            GQL_ASSIGN_OR_RETURN(Tri keep,
                                 EvaluatePredicate(*m.where, where_env, ctx));
            if (keep != Tri::kTrue) return true;
          }
          output.AddRow(std::move(out_row));
          return true;
        });
    GQL_RETURN_IF_ERROR(st);
    if (m.optional && output.NumRows() == before) {
      // OPTIONAL MATCH (Figure 7): pad the unmatched row with nulls for
      // all variables the pattern would have introduced.
      ValueList out_row = row;
      for (size_t i = 0; i < new_cols.size(); ++i) {
        out_row.push_back(Value::Null());
      }
      output.AddRow(std::move(out_row));
    }
  }
  return output;
}

Result<Table> Interpreter::ExecUnwind(const UnwindClause& u,
                                      const Table& input) {
  EvalContext ctx = MakeEvalContext();
  std::vector<std::string> out_fields = input.fields();
  out_fields.push_back(u.var);
  Table output(out_fields);
  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*u.expr, env, ctx));
    // Figure 7's rule: a list unwinds element-wise (empty list → no rows);
    // any non-list value (including null — a deliberate fidelity choice,
    // see README, "Deliberate departures from the paper") yields a single
    // row.
    if (v.is_list()) {
      for (const Value& e : v.AsList()) {
        ValueList out_row = row;
        out_row.push_back(e);
        output.AddRow(std::move(out_row));
      }
    } else {
      ValueList out_row = row;
      out_row.push_back(v);
      output.AddRow(std::move(out_row));
    }
  }
  return output;
}

Result<Table> Interpreter::ExecFromGraph(const FromGraphClause& f,
                                         Table input) {
  // The catalog locks internally.
  if (f.url) {
    // FROM GRAPH g AT "url": resolve through the URL registry and bind the
    // name (simulating an external graph store; see README, "Deliberate
    // departures from the paper").
    GQL_ASSIGN_OR_RETURN(GraphPtr g, catalog_.ResolveUrl(*f.url));
    catalog_.RegisterGraph(f.name, g);
    graph_ = std::move(g);
    return input;
  }
  GQL_ASSIGN_OR_RETURN(GraphPtr g, catalog_.Resolve(f.name));
  graph_ = std::move(g);
  return input;
}

Result<Table> Interpreter::ExecReturnGraph(const ReturnGraphClause& r,
                                           const Table& input) {
  EvalContext ctx = MakeEvalContext();
  auto out_graph = std::make_shared<PropertyGraph>();
  // Each driving row instantiates the pattern once; bound node variables
  // map to nodes in the new graph (copying labels and properties),
  // de-duplicated by source node id.
  std::map<uint64_t, NodeId> node_map;
  auto materialize = [&](const Value& v) -> Result<NodeId> {
    if (!v.is_node()) {
      return Status::TypeError(
          "RETURN GRAPH pattern variables must be bound to nodes");
    }
    NodeId src = v.AsNode();
    auto it = node_map.find(src.id);
    if (it != node_map.end()) return it->second;
    PropertyList props;
    for (const auto& [k, val] : graph_->NodeProperties(src)) {
      props.emplace_back(k, val);
    }
    // lint: allow(graph-mutation) RETURN GRAPH builds a brand-new graph
    NodeId dst = out_graph->CreateNode(graph_->NodeLabels(src), props);
    node_map.emplace(src.id, dst);
    return dst;
  };

  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    for (const auto& path : r.pattern.paths) {
      Value start = Value::Null();
      if (path.start.var) {
        auto v = env.Lookup(*path.start.var);
        if (v) start = *v;
      }
      if (start.is_null()) continue;  // null rows project nothing
      GQL_ASSIGN_OR_RETURN(NodeId prev, materialize(start));
      for (const auto& hop : path.hops) {
        Value nextv = Value::Null();
        if (hop.node.var) {
          auto v = env.Lookup(*hop.node.var);
          if (v) nextv = *v;
        }
        if (nextv.is_null()) break;
        GQL_ASSIGN_OR_RETURN(NodeId next, materialize(nextv));
        PropertyList props;
        for (const auto& [k, e] : hop.rel.properties) {
          GQL_ASSIGN_OR_RETURN(Value val, EvaluateExpr(*e, env, ctx));
          props.emplace_back(k, std::move(val));
        }
        NodeId from = prev;
        NodeId to = next;
        if (hop.rel.direction == Direction::kLeft) std::swap(from, to);
        GQL_ASSIGN_OR_RETURN(
            RelId rel,
            // lint: allow(graph-mutation) RETURN GRAPH builds a new graph
            out_graph->CreateRelationship(from, to, hop.rel.types[0], props));
        (void)rel;
        prev = next;
      }
    }
  }

  catalog_.RegisterGraph(r.graph_name, out_graph);
  produced_graphs_.emplace_back(r.graph_name, out_graph);
  // RETURN GRAPH produces a graph, not a table: the table part of the
  // "table-graphs" result (§6) is empty here.
  return Table();
}

}  // namespace gqlite
