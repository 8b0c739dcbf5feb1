#include "src/frontend/analyzer.h"

#include <set>

#include "src/frontend/ast_printer.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max" || name == "collect";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == Expr::Kind::kCountStar) return true;
  if (e.kind == Expr::Kind::kFunctionCall &&
      IsAggregateFunction(static_cast<const FunctionCallExpr&>(e).name)) {
    return true;
  }
  bool found = false;
  ForEachChild(e, [&found](const Expr& c) {
    found = found || ContainsAggregate(c);
  });
  return found;
}

std::string DerivedColumnName(const Expr& e) { return UnparseExpr(e); }

namespace {

using Scope = std::map<std::string, VarKind>;

const char* VarKindName(VarKind k) {
  switch (k) {
    case VarKind::kNode:
      return "node";
    case VarKind::kRelationship:
      return "relationship";
    case VarKind::kPath:
      return "path";
    case VarKind::kValue:
      return "value";
  }
  return "?";
}

class Analyzer {
 public:
  Result<QueryInfo> Run(const Query& q) {
    QueryInfo info;
    std::vector<std::string> first_columns;
    for (size_t i = 0; i < q.parts.size(); ++i) {
      GQL_ASSIGN_OR_RETURN(QueryInfo part, AnalyzeSingle(q.parts[i]));
      if (part.updating && q.parts.size() > 1) {
        return Status::SemanticError(
            "updating clauses are not allowed in UNION queries");
      }
      info.updating |= part.updating;
      if (i == 0) {
        first_columns = part.columns;
        info.columns = part.columns;
      } else if (part.columns != first_columns) {
        return Status::SemanticError(
            "all UNION parts must have the same column names");
      }
    }
    return info;
  }

 private:
  Result<QueryInfo> AnalyzeSingle(const SingleQuery& q) {
    QueryInfo info;
    Scope scope;
    bool saw_return = false;
    bool saw_updating = false;
    for (size_t i = 0; i < q.clauses.size(); ++i) {
      const Clause& c = *q.clauses[i];
      if (saw_return) {
        return Status::SemanticError("no clause may follow RETURN");
      }
      switch (c.kind) {
        case Clause::Kind::kMatch: {
          const auto& m = static_cast<const MatchClause&>(c);
          GQL_RETURN_IF_ERROR(CheckMatchPattern(m.pattern, &scope));
          if (m.where) {
            GQL_RETURN_IF_ERROR(CheckExpr(*m.where, scope, false));
          }
          break;
        }
        case Clause::Kind::kWith: {
          const auto& w = static_cast<const WithClause&>(c);
          GQL_ASSIGN_OR_RETURN(Scope next,
                               CheckProjection(w.body, scope, "WITH"));
          if (w.where) {
            GQL_RETURN_IF_ERROR(CheckExpr(*w.where, next, false));
          }
          scope = std::move(next);
          break;
        }
        case Clause::Kind::kReturn: {
          const auto& r = static_cast<const ReturnClause&>(c);
          GQL_ASSIGN_OR_RETURN(Scope out,
                               CheckProjection(r.body, scope, "RETURN"));
          GQL_ASSIGN_OR_RETURN(info.columns, ProjectionColumns(r.body, scope));
          (void)out;
          saw_return = true;
          break;
        }
        case Clause::Kind::kReturnGraph: {
          const auto& r = static_cast<const ReturnGraphClause&>(c);
          GQL_RETURN_IF_ERROR(CheckGraphProjectionPattern(r.pattern, scope));
          saw_return = true;
          break;
        }
        case Clause::Kind::kUnwind: {
          const auto& u = static_cast<const UnwindClause&>(c);
          GQL_RETURN_IF_ERROR(CheckExpr(*u.expr, scope, false));
          if (scope.contains(u.var)) {
            return Status::SemanticError("variable `" + u.var +
                                         "` already bound");
          }
          scope[u.var] = VarKind::kValue;
          break;
        }
        case Clause::Kind::kCreate: {
          const auto& cr = static_cast<const CreateClause&>(c);
          GQL_RETURN_IF_ERROR(CheckCreatePattern(cr.pattern, &scope));
          saw_updating = true;
          break;
        }
        case Clause::Kind::kDelete: {
          const auto& d = static_cast<const DeleteClause&>(c);
          for (const auto& e : d.exprs) {
            GQL_RETURN_IF_ERROR(CheckExpr(*e, scope, false));
          }
          saw_updating = true;
          break;
        }
        case Clause::Kind::kSet: {
          const auto& s = static_cast<const SetClause&>(c);
          GQL_RETURN_IF_ERROR(CheckSetItems(s.items, scope));
          saw_updating = true;
          break;
        }
        case Clause::Kind::kRemove: {
          const auto& r = static_cast<const RemoveClause&>(c);
          for (const auto& item : r.items) {
            GQL_RETURN_IF_ERROR(RequireVar(item.var, scope));
          }
          saw_updating = true;
          break;
        }
        case Clause::Kind::kMerge: {
          const auto& m = static_cast<const MergeClause&>(c);
          GQL_RETURN_IF_ERROR(CheckMergePattern(m.pattern, &scope));
          GQL_RETURN_IF_ERROR(CheckSetItems(m.on_create, scope));
          GQL_RETURN_IF_ERROR(CheckSetItems(m.on_match, scope));
          saw_updating = true;
          break;
        }
        case Clause::Kind::kFromGraph:
          // Graph reference resolution is an execution-time concern.
          break;
      }
    }
    info.updating = saw_updating;
    if (!saw_return && !saw_updating) {
      return Status::SemanticError(
          "query must conclude with RETURN (or an update clause)");
    }
    return info;
  }

  Status RequireVar(const std::string& name, const Scope& scope) {
    if (!scope.contains(name)) {
      return Status::SemanticError("variable `" + name + "` not defined");
    }
    return Status::OK();
  }

  Status BindOrCheck(const std::string& name, VarKind kind, Scope* scope) {
    auto it = scope->find(name);
    if (it == scope->end()) {
      (*scope)[name] = kind;
      return Status::OK();
    }
    if (it->second != kind) {
      return Status::SemanticError(
          "variable `" + name + "` already bound as a " +
          VarKindName(it->second) + ", cannot rebind as a " +
          VarKindName(kind));
    }
    return Status::OK();
  }

  Status CheckMatchPattern(const Pattern& p, Scope* scope) {
    for (const auto& path : p.paths) {
      if (path.path_var) {
        if (scope->contains(*path.path_var)) {
          return Status::SemanticError("path variable `" + *path.path_var +
                                       "` already bound");
        }
        (*scope)[*path.path_var] = VarKind::kPath;
      }
      GQL_RETURN_IF_ERROR(CheckNodePattern(path.start, scope));
      for (const auto& hop : path.hops) {
        const RelPattern& r = hop.rel;
        if (r.var) {
          // A variable-length relationship variable binds to a LIST of
          // relationships (§4.2 satisfaction item (a')).
          VarKind kind = r.length ? VarKind::kValue : VarKind::kRelationship;
          GQL_RETURN_IF_ERROR(BindOrCheck(*r.var, kind, scope));
        }
        for (const auto& [k, v] : r.properties) {
          GQL_RETURN_IF_ERROR(CheckExpr(*v, *scope, false));
        }
        if (r.length && r.length->min && r.length->max &&
            *r.length->min > *r.length->max) {
          return Status::SemanticError(
              "variable-length range has min > max");
        }
        GQL_RETURN_IF_ERROR(CheckNodePattern(hop.node, scope));
      }
    }
    return Status::OK();
  }

  Status CheckNodePattern(const NodePattern& n, Scope* scope) {
    if (n.var) {
      GQL_RETURN_IF_ERROR(BindOrCheck(*n.var, VarKind::kNode, scope));
    }
    for (const auto& [k, v] : n.properties) {
      GQL_RETURN_IF_ERROR(CheckExpr(*v, *scope, false));
    }
    return Status::OK();
  }

  Status CheckCreatePattern(const Pattern& p, Scope* scope) {
    for (const auto& path : p.paths) {
      if (path.path_var) {
        if (scope->contains(*path.path_var)) {
          return Status::SemanticError("path variable `" + *path.path_var +
                                       "` already bound");
        }
        (*scope)[*path.path_var] = VarKind::kPath;
      }
      // Node variables may be bound (attach to existing node) or fresh.
      GQL_RETURN_IF_ERROR(CheckNodePattern(path.start, scope));
      for (const auto& hop : path.hops) {
        const RelPattern& r = hop.rel;
        if (r.length) {
          return Status::SemanticError(
              "variable-length relationships cannot be used in CREATE");
        }
        if (r.direction == Direction::kBoth) {
          return Status::SemanticError(
              "CREATE requires a directed relationship");
        }
        if (r.types.size() != 1) {
          return Status::SemanticError(
              "CREATE requires exactly one relationship type");
        }
        if (r.var) {
          if (scope->contains(*r.var)) {
            return Status::SemanticError("relationship variable `" + *r.var +
                                         "` already bound");
          }
          (*scope)[*r.var] = VarKind::kRelationship;
        }
        for (const auto& [k, v] : r.properties) {
          GQL_RETURN_IF_ERROR(CheckExpr(*v, *scope, false));
        }
        GQL_RETURN_IF_ERROR(CheckNodePattern(hop.node, scope));
      }
    }
    return Status::OK();
  }

  Status CheckMergePattern(const PathPattern& path, Scope* scope) {
    if (path.path_var) {
      return Status::SemanticError("MERGE does not support path variables");
    }
    GQL_RETURN_IF_ERROR(CheckNodePattern(path.start, scope));
    for (const auto& hop : path.hops) {
      const RelPattern& r = hop.rel;
      if (r.length) {
        return Status::SemanticError(
            "variable-length relationships cannot be used in MERGE");
      }
      if (r.types.size() != 1) {
        return Status::SemanticError(
            "MERGE requires exactly one relationship type");
      }
      if (r.var) {
        if (scope->contains(*r.var)) {
          return Status::SemanticError("relationship variable `" + *r.var +
                                       "` already bound");
        }
        (*scope)[*r.var] = VarKind::kRelationship;
      }
      for (const auto& [k, v] : r.properties) {
        GQL_RETURN_IF_ERROR(CheckExpr(*v, *scope, false));
      }
      GQL_RETURN_IF_ERROR(CheckNodePattern(hop.node, scope));
    }
    return Status::OK();
  }

  Status CheckGraphProjectionPattern(const Pattern& p, const Scope& scope) {
    for (const auto& path : p.paths) {
      if (path.start.var) {
        GQL_RETURN_IF_ERROR(RequireVar(*path.start.var, scope));
      }
      for (const auto& hop : path.hops) {
        if (hop.rel.types.size() != 1 ||
            hop.rel.direction == Direction::kBoth || hop.rel.length) {
          return Status::SemanticError(
              "RETURN GRAPH patterns must use single-type directed "
              "relationships");
        }
        if (hop.node.var) {
          GQL_RETURN_IF_ERROR(RequireVar(*hop.node.var, scope));
        }
      }
    }
    return Status::OK();
  }

  Status CheckSetItems(const std::vector<SetItem>& items, const Scope& scope) {
    for (const auto& item : items) {
      switch (item.kind) {
        case SetItem::Kind::kProperty: {
          GQL_RETURN_IF_ERROR(CheckExpr(*item.target, scope, false));
          GQL_RETURN_IF_ERROR(CheckExpr(*item.value, scope, false));
          break;
        }
        case SetItem::Kind::kReplaceProps:
        case SetItem::Kind::kMergeProps:
          GQL_RETURN_IF_ERROR(RequireVar(item.var, scope));
          GQL_RETURN_IF_ERROR(CheckExpr(*item.value, scope, false));
          break;
        case SetItem::Kind::kLabels:
          GQL_RETURN_IF_ERROR(RequireVar(item.var, scope));
          break;
      }
    }
    return Status::OK();
  }

  /// Validates a WITH/RETURN body and returns the scope it exports.
  Result<Scope> CheckProjection(const ProjectionBody& body, const Scope& in,
                                const char* what) {
    Scope out;
    if (body.star) {
      if (in.empty()) {
        return Status::SemanticError(std::string(what) +
                                     " * requires at least one variable in "
                                     "scope");
      }
      out = in;
    } else if (body.items.empty()) {
      return Status::SemanticError(std::string(what) +
                                   " requires at least one item");
    }
    std::set<std::string> names;
    for (const auto& [name, kind] : out) names.insert(name);
    bool aggregating = false;
    for (const auto& item : body.items) {
      if (ContainsAggregate(*item.expr)) aggregating = true;
    }
    for (const auto& item : body.items) {
      GQL_RETURN_IF_ERROR(CheckExpr(*item.expr, in, true));
      std::string name =
          item.alias ? *item.alias : DerivedColumnName(*item.expr);
      // Un-aliased non-variable items in WITH must have an alias to be
      // addressable downstream; Cypher requires this for WITH but not
      // RETURN. Enforce like Neo4j.
      if (!item.alias && std::string(what) == "WITH" &&
          item.expr->kind != Expr::Kind::kVariable) {
        return Status::SemanticError(
            "expression in WITH must be aliased (use AS)");
      }
      if (!names.insert(name).second) {
        return Status::SemanticError("duplicate column name `" + name + "`");
      }
      VarKind kind = VarKind::kValue;
      if (item.expr->kind == Expr::Kind::kVariable) {
        auto it = in.find(static_cast<const VariableExpr&>(*item.expr).name);
        if (it != in.end()) kind = it->second;
      }
      out[name] = kind;
    }
    // ORDER BY sees the output scope; for non-aggregating projections it
    // may also reference the input scope (Cypher allows ORDER BY on
    // underlying variables).
    Scope order_scope = out;
    if (!aggregating) {
      for (const auto& [k, v] : in) order_scope.emplace(k, v);
    }
    for (const auto& o : body.order_by) {
      // ORDER BY may name a projected column by its derived text (e.g.
      // ORDER BY p.acmid after RETURN p.acmid, count(*)).
      if (names.contains(DerivedColumnName(*o.expr))) continue;
      GQL_RETURN_IF_ERROR(CheckExpr(*o.expr, order_scope, false));
    }
    if (body.skip) {
      GQL_RETURN_IF_ERROR(CheckExpr(*body.skip, {}, false));
    }
    if (body.limit) {
      GQL_RETURN_IF_ERROR(CheckExpr(*body.limit, {}, false));
    }
    return out;
  }

  Result<std::vector<std::string>> ProjectionColumns(
      const ProjectionBody& body, const Scope& in) {
    std::vector<std::string> cols;
    if (body.star) {
      for (const auto& [name, kind] : in) cols.push_back(name);
    }
    for (const auto& item : body.items) {
      cols.push_back(item.alias ? *item.alias
                                : DerivedColumnName(*item.expr));
    }
    return cols;
  }

  Status CheckExpr(const Expr& e, const Scope& scope, bool allow_aggregates) {
    switch (e.kind) {
      case Expr::Kind::kVariable:
        return RequireVar(static_cast<const VariableExpr&>(e).name, scope);
      case Expr::Kind::kCountStar:
        return allow_aggregates ? Status::OK() : AggregateNotAllowed();
      case Expr::Kind::kFunctionCall: {
        const auto& f = static_cast<const FunctionCallExpr&>(e);
        if (!IsAggregateFunction(f.name)) break;
        if (!allow_aggregates) return AggregateNotAllowed();
        for (const auto& a : f.args) {
          // No nested aggregation.
          if (ContainsAggregate(*a)) {
            return Status::SemanticError(
                "aggregate functions cannot be nested");
          }
          GQL_RETURN_IF_ERROR(CheckExpr(*a, scope, false));
        }
        return Status::OK();
      }
      case Expr::Kind::kSlice: {
        const auto& s = static_cast<const SliceExpr&>(e);
        GQL_RETURN_IF_ERROR(CheckExpr(*s.object, scope, allow_aggregates));
        if (s.from) GQL_RETURN_IF_ERROR(CheckExpr(*s.from, scope, false));
        if (s.to) GQL_RETURN_IF_ERROR(CheckExpr(*s.to, scope, false));
        return Status::OK();
      }
      case Expr::Kind::kListComprehension: {
        const auto& c = static_cast<const ListComprehensionExpr&>(e);
        GQL_RETURN_IF_ERROR(CheckExpr(*c.list, scope, allow_aggregates));
        Scope inner = scope;
        inner[c.var] = VarKind::kValue;
        if (c.where) GQL_RETURN_IF_ERROR(CheckExpr(*c.where, inner, false));
        if (c.project) {
          GQL_RETURN_IF_ERROR(CheckExpr(*c.project, inner, false));
        }
        return Status::OK();
      }
      case Expr::Kind::kQuantifier: {
        const auto& q = static_cast<const QuantifierExpr&>(e);
        GQL_RETURN_IF_ERROR(CheckExpr(*q.list, scope, allow_aggregates));
        Scope inner = scope;
        inner[q.var] = VarKind::kValue;
        return CheckExpr(*q.where, inner, false);
      }
      case Expr::Kind::kReduce: {
        const auto& r = static_cast<const ReduceExpr&>(e);
        GQL_RETURN_IF_ERROR(CheckExpr(*r.init, scope, allow_aggregates));
        GQL_RETURN_IF_ERROR(CheckExpr(*r.list, scope, allow_aggregates));
        Scope inner = scope;
        inner[r.acc] = VarKind::kValue;
        inner[r.var] = VarKind::kValue;
        return CheckExpr(*r.body, inner, false);
      }
      case Expr::Kind::kPatternPredicate: {
        const auto& p = static_cast<const PatternPredicateExpr&>(e);
        // Pattern predicates may not introduce new variables: every named
        // variable must already be bound. Their property maps are checked
        // below, with no aggregates.
        for (const auto& path : p.pattern.paths) {
          if (path.start.var) {
            GQL_RETURN_IF_ERROR(RequireVar(*path.start.var, scope));
          }
          for (const auto& hop : path.hops) {
            if (hop.rel.var) {
              GQL_RETURN_IF_ERROR(RequireVar(*hop.rel.var, scope));
            }
            if (hop.node.var) {
              GQL_RETURN_IF_ERROR(RequireVar(*hop.node.var, scope));
            }
          }
        }
        allow_aggregates = false;
        break;
      }
      default:
        break;
    }
    Status status;
    ForEachChild(e, [&](const Expr& c) {
      if (status.ok()) status = CheckExpr(c, scope, allow_aggregates);
    });
    return status;
  }

  static Status AggregateNotAllowed() {
    return Status::SemanticError(
        "aggregation is only allowed in RETURN and WITH projections");
  }
};

}  // namespace

Result<QueryInfo> Analyze(const Query& q) { return Analyzer().Run(q); }

}  // namespace gqlite
