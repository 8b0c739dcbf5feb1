#include "src/plan/logical_plan.h"

#include <set>

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

bool PipelinePlannable(const Pattern& pattern) {
  std::set<std::string> var_length_vars;
  for (const auto& path : pattern.paths) {
    if (path.path_var) return false;  // path values need full traversal info
    for (const auto& hop : path.hops) {
      if (hop.rel.var && hop.rel.length) {
        // A repeated var-length variable requires list-equality joins the
        // pipeline does not implement.
        if (!var_length_vars.insert(*hop.rel.var).second) return false;
      }
    }
  }
  return true;
}

namespace {

/// Appends the variables `e` reads that are not in `skip` (the names
/// bound by enclosing list comprehensions, quantifiers and reduces).
void CollectVars(const Expr& e, std::set<std::string>* skip,
                 std::vector<std::string>* out) {
  auto use = [&](const std::string& name) {
    if (!skip->contains(name)) out->push_back(name);
  };
  switch (e.kind) {
    case Expr::Kind::kVariable:
      use(static_cast<const VariableExpr&>(e).name);
      return;
    case Expr::Kind::kListComprehension: {
      const auto& c = static_cast<const ListComprehensionExpr&>(e);
      CollectVars(*c.list, skip, out);
      bool added = skip->insert(c.var).second;
      if (c.where) CollectVars(*c.where, skip, out);
      if (c.project) CollectVars(*c.project, skip, out);
      if (added) skip->erase(c.var);
      return;
    }
    case Expr::Kind::kQuantifier: {
      const auto& q = static_cast<const QuantifierExpr&>(e);
      CollectVars(*q.list, skip, out);
      bool added = skip->insert(q.var).second;
      CollectVars(*q.where, skip, out);
      if (added) skip->erase(q.var);
      return;
    }
    case Expr::Kind::kReduce: {
      const auto& r = static_cast<const ReduceExpr&>(e);
      CollectVars(*r.init, skip, out);
      CollectVars(*r.list, skip, out);
      bool added_acc = skip->insert(r.acc).second;
      bool added_var = skip->insert(r.var).second;
      CollectVars(*r.body, skip, out);
      if (added_acc) skip->erase(r.acc);
      if (added_var) skip->erase(r.var);
      return;
    }
    case Expr::Kind::kPatternPredicate: {
      // The pattern's variables, then (below) its property maps.
      const auto& p = static_cast<const PatternPredicateExpr&>(e);
      for (const auto& path : p.pattern.paths) {
        if (path.start.var) use(*path.start.var);
        for (const auto& hop : path.hops) {
          if (hop.rel.var) use(*hop.rel.var);
          if (hop.node.var) use(*hop.node.var);
        }
      }
      break;
    }
    default:
      break;
  }
  ForEachChild(e, [&](const Expr& c) { CollectVars(c, skip, out); });
}

}  // namespace

std::vector<std::string> ExprVariables(const Expr& e) {
  std::vector<std::string> out;
  std::set<std::string> skip;
  CollectVars(e, &skip, &out);
  return out;
}

namespace {

/// True if `e` can only evaluate to a boolean or null (or raise its own
/// error): a conjunct of this form behaves the same as a filter of its
/// own and as an AND operand.
bool IsPredicateForm(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value.is_bool();
    case Expr::Kind::kLabelCheck:
    case Expr::Kind::kPatternPredicate:
      return true;
    case Expr::Kind::kFunctionCall:
      return static_cast<const FunctionCallExpr&>(e).name == "exists";
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op == UnaryOp::kIsNull || u.op == UnaryOp::kIsNotNull) {
        return true;
      }
      return u.op == UnaryOp::kNot && IsPredicateForm(*u.operand);
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      switch (b.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kXor:
          return IsPredicateForm(*b.lhs) && IsPredicateForm(*b.rhs);
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kIn:
        case BinaryOp::kStartsWith:
        case BinaryOp::kEndsWith:
        case BinaryOp::kContains:
          return true;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op == BinaryOp::kAnd) {
      CollectConjuncts(*b.lhs, out);
      CollectConjuncts(*b.rhs, out);
      return;
    }
  }
  out->push_back(&e);
}

}  // namespace

std::vector<const Expr*> SplitConjuncts(const Expr& e) {
  std::vector<const Expr*> out;
  CollectConjuncts(e, &out);
  for (const Expr* c : out) {
    if (!IsPredicateForm(*c)) return {&e};
  }
  return out;
}

}  // namespace gqlite
