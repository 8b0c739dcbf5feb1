#include "src/update/update_executor.h"

#include <map>

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

std::string UpdateStats::ToString() const {
  std::string out;
  auto add = [&](int64_t n, const char* what) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += std::to_string(n) + " " + what;
  };
  add(nodes_created, "nodes created");
  add(rels_created, "relationships created");
  add(properties_set, "properties set");
  add(labels_added, "labels added");
  add(nodes_deleted, "nodes deleted");
  add(rels_deleted, "relationships deleted");
  add(labels_removed, "labels removed");
  if (out.empty()) out = "no changes";
  return out;
}

EvalContext UpdateExecutor::MakeEvalContext() const {
  EvalContext ctx;
  ctx.graph = graph_;
  ctx.parameters = params_;
  ctx.rand_state = rand_state_;
  const PropertyGraph* g = graph_;
  const MatchOptions* opts = &match_opts_;
  const ValueMap* params = params_;
  uint64_t* rand_state = rand_state_;
  ctx.pattern_predicate = [g, opts, params, rand_state](
                              const Pattern& p,
                              const Environment& env) -> Result<bool> {
    EvalContext inner;
    inner.graph = g;
    inner.parameters = params;
    inner.rand_state = rand_state;
    return ExistsMatch(p, *g, env, inner, *opts);
  };
  return ctx;
}

Result<Table> UpdateExecutor::Execute(const Clause& c, Table input) {
  switch (c.kind) {
    case Clause::Kind::kCreate:
      return ExecCreate(static_cast<const CreateClause&>(c),
                        std::move(input));
    case Clause::Kind::kDelete:
      return ExecDelete(static_cast<const DeleteClause&>(c),
                        std::move(input));
    case Clause::Kind::kSet:
      return ExecSet(static_cast<const SetClause&>(c), std::move(input));
    case Clause::Kind::kRemove:
      return ExecRemove(static_cast<const RemoveClause&>(c),
                        std::move(input));
    case Clause::Kind::kMerge:
      return ExecMerge(static_cast<const MergeClause&>(c), std::move(input));
    default:
      return Status::Internal("not an updating clause");
  }
}

namespace {

/// Evaluates the properties of a node/relationship pattern into a
/// PropertyList (each key has its own expression).
Result<PropertyList> EvalProps(
    const std::vector<std::pair<std::string, ExprPtr>>& props,
    const Environment& env, const EvalContext& ctx) {
  PropertyList out;
  for (const auto& [k, e] : props) {
    GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, env, ctx));
    out.emplace_back(k, std::move(v));
  }
  return out;
}

/// Collects the variables a CREATE/MERGE pattern would newly bind.
std::vector<std::string> NewVars(const Pattern& p, const Table& table) {
  std::vector<std::string> out;
  for (const std::string& v : PatternVariables(p)) {
    if (table.FieldIndex(v) < 0) out.push_back(v);
  }
  return out;
}

}  // namespace

Status UpdateExecutor::CreatePattern(const Pattern& pattern,
                                     const Table& table, ValueList* row,
                                     const std::vector<std::string>& new_cols) {
  EvalContext ctx = MakeEvalContext();
  // Local bindings: the row's fields plus entities created so far in this
  // pattern instantiation (shared across paths, so CREATE (a)-[:T]->(b),
  // (b)-[:U]->(c) wires b once).
  std::map<std::string, Value> locals;
  class Env : public Environment {
   public:
    Env(const Table& t, const ValueList& r,
        const std::map<std::string, Value>& l)
        : t_(t), r_(r), l_(l) {}
    const Value* Lookup(const std::string& name) const override {
      auto it = l_.find(name);
      if (it != l_.end()) return &it->second;
      int i = t_.FieldIndex(name);
      if (i < 0) return nullptr;
      return &r_[i];
    }

   private:
    const Table& t_;
    const ValueList& r_;
    const std::map<std::string, Value>& l_;
  } env(table, *row, locals);

  auto resolve_node = [&](const NodePattern& np) -> Result<NodeId> {
    if (np.var) {
      const Value* bound = env.Lookup(*np.var);
      if (bound != nullptr) {
        if (!bound->is_node()) {
          return Status::TypeError("CREATE endpoint `" + *np.var +
                                   "` is not a node");
        }
        if (!graph_->IsNodeAlive(bound->AsNode())) {
          return Status::EvaluationError(
              "cannot create relationship to a deleted node");
        }
        return bound->AsNode();
      }
    }
    GQL_ASSIGN_OR_RETURN(PropertyList props,
                         EvalProps(np.properties, env, ctx));
    NodeId n = graph_->CreateNode(np.labels, props);
    ++stats_->nodes_created;
    stats_->properties_set += static_cast<int64_t>(props.size());
    stats_->labels_added += static_cast<int64_t>(np.labels.size());
    if (np.var) locals[*np.var] = Value::Node(n);
    return n;
  };

  for (const auto& path : pattern.paths) {
    Path path_value;
    GQL_ASSIGN_OR_RETURN(NodeId prev, resolve_node(path.start));
    path_value.nodes.push_back(prev);
    for (const auto& hop : path.hops) {
      GQL_ASSIGN_OR_RETURN(NodeId next, resolve_node(hop.node));
      GQL_ASSIGN_OR_RETURN(PropertyList props,
                           EvalProps(hop.rel.properties, env, ctx));
      NodeId from = prev;
      NodeId to = next;
      if (hop.rel.direction == Direction::kLeft) std::swap(from, to);
      GQL_ASSIGN_OR_RETURN(
          RelId r,
          graph_->CreateRelationship(from, to, hop.rel.types[0], props));
      ++stats_->rels_created;
      stats_->properties_set += static_cast<int64_t>(props.size());
      if (hop.rel.var) locals[*hop.rel.var] = Value::Relationship(r);
      path_value.nodes.push_back(next);
      path_value.rels.push_back(r);
      prev = next;
    }
    if (path.path_var) {
      locals[*path.path_var] = Value::MakePath(std::move(path_value));
    }
  }

  for (const std::string& col : new_cols) {
    auto it = locals.find(col);
    if (it != locals.end()) {
      row->push_back(it->second);
    } else {
      return Status::Internal("CREATE did not bind `" + col + "`");
    }
  }
  return Status::OK();
}

Result<Table> UpdateExecutor::ExecCreate(const CreateClause& c, Table input) {
  std::vector<std::string> new_cols = NewVars(c.pattern, input);
  std::vector<std::string> fields = input.fields();
  for (const auto& v : new_cols) fields.push_back(v);
  Table output(fields);
  for (const auto& row : input.rows()) {
    ValueList out_row = row;
    GQL_RETURN_IF_ERROR(CreatePattern(c.pattern, input, &out_row, new_cols));
    output.AddRow(std::move(out_row));
  }
  return output;
}

Status UpdateExecutor::DeleteValue(const Value& v, bool detach) {
  if (v.is_null()) return Status::OK();
  if (v.is_node()) {
    NodeId n = v.AsNode();
    if (!graph_->IsNodeAlive(n)) return Status::OK();  // already deleted
    if (!detach && graph_->Degree(n) > 0) {
      return Status::EvaluationError(
          "cannot delete node with relationships; use DETACH DELETE");
    }
    if (detach) {
      // Count what DetachDeleteNode actually removes — the pre-delete
      // Degree over-counted self-loops (they appear in both adjacency
      // directions) and relationships already removed when the other
      // endpoint was DETACH DELETEd earlier in the same statement.
      GQL_ASSIGN_OR_RETURN(int64_t removed, graph_->DetachDeleteNode(n));
      stats_->rels_deleted += removed;
    } else {
      GQL_RETURN_IF_ERROR(graph_->DeleteNode(n));
    }
    ++stats_->nodes_deleted;
    return Status::OK();
  }
  if (v.is_relationship()) {
    RelId r = v.AsRelationship();
    if (!graph_->IsRelAlive(r)) return Status::OK();
    GQL_RETURN_IF_ERROR(graph_->DeleteRelationship(r));
    ++stats_->rels_deleted;
    return Status::OK();
  }
  if (v.is_path()) {
    const Path& p = v.AsPath();
    for (RelId r : p.rels) {
      if (graph_->IsRelAlive(r)) {
        GQL_RETURN_IF_ERROR(graph_->DeleteRelationship(r));
        ++stats_->rels_deleted;
      }
    }
    for (NodeId n : p.nodes) {
      GQL_RETURN_IF_ERROR(DeleteValue(Value::Node(n), detach));
    }
    return Status::OK();
  }
  return Status::TypeError("DELETE requires nodes, relationships or paths");
}

Result<Table> UpdateExecutor::ExecDelete(const DeleteClause& c, Table input) {
  EvalContext ctx = MakeEvalContext();
  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    for (const auto& e : c.exprs) {
      GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, env, ctx));
      GQL_RETURN_IF_ERROR(DeleteValue(v, c.detach));
    }
  }
  return input;
}

Status UpdateExecutor::ApplySetItems(const std::vector<SetItem>& items,
                                     const Table& table,
                                     const ValueList& row) {
  EvalContext ctx = MakeEvalContext();
  SchemaRowEnvironment env(table.fields(), row);
  for (const auto& item : items) {
    switch (item.kind) {
      case SetItem::Kind::kProperty: {
        const auto& target = static_cast<const PropertyExpr&>(*item.target);
        GQL_ASSIGN_OR_RETURN(Value obj,
                             EvaluateExpr(*target.object, env, ctx));
        if (obj.is_null()) break;  // SET on null is a no-op
        GQL_ASSIGN_OR_RETURN(Value val, EvaluateExpr(*item.value, env, ctx));
        if (obj.is_node()) {
          stats_->properties_set +=
              graph_->SetNodeProperty(obj.AsNode(), target.key, val);
        } else if (obj.is_relationship()) {
          stats_->properties_set += graph_->SetRelProperty(
              obj.AsRelationship(), target.key, val);
        } else {
          return Status::TypeError(
              "SET property target must be a node or relationship");
        }
        break;
      }
      case SetItem::Kind::kReplaceProps:
      case SetItem::Kind::kMergeProps: {
        const Value* obj = env.Lookup(item.var);
        if (obj == nullptr || obj->is_null()) break;
        GQL_ASSIGN_OR_RETURN(Value val, EvaluateExpr(*item.value, env, ctx));
        ValueMap new_props;
        if (val.is_map()) {
          new_props = val.AsMap();
        } else if (val.is_node()) {
          new_props = graph_->NodeProperties(val.AsNode());
        } else if (val.is_relationship()) {
          new_props = graph_->RelProperties(val.AsRelationship());
        } else {
          return Status::TypeError(
              "SET " + item.var +
              " = ... requires a map, node or relationship value");
        }
        auto apply = [&](auto setter, auto current_keys) {
          if (item.kind == SetItem::Kind::kReplaceProps) {
            for (const std::string& k : current_keys) {
              if (new_props.find(k) == new_props.end()) {
                stats_->properties_set += setter(k, Value::Null());
              }
            }
          }
          for (const auto& [k, v] : new_props) {
            stats_->properties_set += setter(k, v);
          }
        };
        if (obj->is_node()) {
          NodeId n = obj->AsNode();
          apply(
              [&](const std::string& k, const Value& v) {
                return graph_->SetNodeProperty(n, k, v);
              },
              graph_->NodePropertyKeys(n));
        } else if (obj->is_relationship()) {
          RelId r = obj->AsRelationship();
          apply(
              [&](const std::string& k, const Value& v) {
                return graph_->SetRelProperty(r, k, v);
              },
              graph_->RelPropertyKeys(r));
        } else {
          return Status::TypeError(
              "SET target must be a node or relationship");
        }
        break;
      }
      case SetItem::Kind::kLabels: {
        const Value* obj = env.Lookup(item.var);
        if (obj == nullptr || obj->is_null()) break;
        if (!obj->is_node()) {
          return Status::TypeError("SET :Label target must be a node");
        }
        for (const auto& l : item.labels) {
          if (graph_->AddLabel(obj->AsNode(), l)) ++stats_->labels_added;
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<Table> UpdateExecutor::ExecSet(const SetClause& c, Table input) {
  for (const auto& row : input.rows()) {
    GQL_RETURN_IF_ERROR(ApplySetItems(c.items, input, row));
  }
  return input;
}

Result<Table> UpdateExecutor::ExecRemove(const RemoveClause& c, Table input) {
  EvalContext ctx = MakeEvalContext();
  (void)ctx;
  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    for (const auto& item : c.items) {
      const Value* obj = env.Lookup(item.var);
      if (obj == nullptr || obj->is_null()) continue;
      if (item.kind == RemoveItem::Kind::kProperty) {
        if (obj->is_node()) {
          stats_->properties_set +=
              graph_->SetNodeProperty(obj->AsNode(), item.key, Value::Null());
        } else if (obj->is_relationship()) {
          stats_->properties_set += graph_->SetRelProperty(
              obj->AsRelationship(), item.key, Value::Null());
        } else {
          return Status::TypeError(
              "REMOVE property target must be a node or relationship");
        }
      } else {
        if (!obj->is_node()) {
          return Status::TypeError("REMOVE :Label target must be a node");
        }
        for (const auto& l : item.labels) {
          if (graph_->RemoveLabel(obj->AsNode(), l)) {
            ++stats_->labels_removed;
          }
        }
      }
    }
  }
  return input;
}

Result<Table> UpdateExecutor::ExecMerge(const MergeClause& c, Table input) {
  EvalContext ctx = MakeEvalContext();
  Pattern as_tuple;
  as_tuple.paths.push_back(ClonePattern(c.pattern));

  std::vector<std::string> new_cols;
  {
    ValueList empty_row(input.NumFields(), Value::Null());
    SchemaRowEnvironment env(input.fields(), empty_row);
    new_cols = NewPatternColumns(as_tuple, env);
  }
  std::vector<std::string> fields = input.fields();
  for (const auto& v : new_cols) fields.push_back(v);
  Table output(fields);

  for (const auto& row : input.rows()) {
    SchemaRowEnvironment env(input.fields(), row);
    size_t before = output.NumRows();
    Status st = MatchPattern(as_tuple, *graph_, env, ctx, match_opts_,
                             new_cols,
                             [&](const BindingRow& bindings) -> Result<bool> {
                               ValueList out_row = row;
                               for (const Value& v : bindings) {
                                 out_row.push_back(v);
                               }
                               output.AddRow(std::move(out_row));
                               return true;
                             });
    GQL_RETURN_IF_ERROR(st);
    if (output.NumRows() == before) {
      // No match: create the pattern (MERGE's "tries to match … and
      // creates the pattern if no match was found", §2), then ON CREATE.
      ValueList out_row = row;
      GQL_RETURN_IF_ERROR(
          CreatePattern(as_tuple, input, &out_row, new_cols));
      output.AddRow(std::move(out_row));
      if (!c.on_create.empty()) {
        GQL_RETURN_IF_ERROR(
            ApplySetItems(c.on_create, output, output.rows().back()));
      }
    } else if (!c.on_match.empty()) {
      for (size_t i = before; i < output.NumRows(); ++i) {
        GQL_RETURN_IF_ERROR(
            ApplySetItems(c.on_match, output, output.rows()[i]));
      }
    }
  }
  return output;
}

}  // namespace gqlite
