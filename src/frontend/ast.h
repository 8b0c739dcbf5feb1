#ifndef GQLITE_FRONTEND_AST_H_
#define GQLITE_FRONTEND_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/value/value.h"

namespace gqlite {
namespace ast {

// ---------------------------------------------------------------------------
// Expressions (Figure 5, "expressions" production, plus the standard
// arithmetic operators — elements of the base-function set ℱ — and the
// extensions §2 advertises: CASE, list comprehensions, pattern predicates).
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinaryOp : uint8_t {
  kOr,
  kXor,
  kAnd,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kPow,
  kIn,
  kStartsWith,
  kEndsWith,
  kContains,
  kRegexMatch,
};

enum class UnaryOp : uint8_t {
  kNot,
  kMinus,
  kPlus,
  kIsNull,
  kIsNotNull,
};

const char* BinaryOpName(BinaryOp op);
const char* UnaryOpName(UnaryOp op);

struct Expr {
  enum class Kind : uint8_t {
    kLiteral,
    kVariable,
    kParameter,
    kProperty,        // expr.key
    kLabelCheck,      // expr:Label1:Label2 (predicate form, e.g. in WHERE)
    kListLiteral,     // [e1, ...]
    kMapLiteral,      // {k: e, ...}
    kFunctionCall,    // f(args) / f(DISTINCT args); includes aggregates
    kCountStar,       // count(*)
    kBinary,
    kUnary,
    kIndex,              // list[e]
    kSlice,              // list[from..to]
    kCase,               // CASE ... END
    kListComprehension,  // [x IN list WHERE p | e]
    kQuantifier,         // all/any/none/single(x IN list WHERE p)
    kReduce,             // reduce(acc = init, x IN list | expr)
    kPatternPredicate,   // exists((a)-[:T]->(b)) / bare pattern in WHERE
  };

  Kind kind;
  int line = 0;
  int col = 0;

  explicit Expr(Kind k) : kind(k) {}
  virtual ~Expr() = default;
};

struct LiteralExpr : Expr {
  Value value;
  explicit LiteralExpr(Value v) : Expr(Kind::kLiteral), value(std::move(v)) {}
};

struct VariableExpr : Expr {
  std::string name;
  explicit VariableExpr(std::string n)
      : Expr(Kind::kVariable), name(std::move(n)) {}
};

struct ParameterExpr : Expr {
  std::string name;
  explicit ParameterExpr(std::string n)
      : Expr(Kind::kParameter), name(std::move(n)) {}
};

struct PropertyExpr : Expr {
  ExprPtr object;
  std::string key;
  PropertyExpr(ExprPtr obj, std::string k)
      : Expr(Kind::kProperty), object(std::move(obj)), key(std::move(k)) {}
};

struct LabelCheckExpr : Expr {
  ExprPtr object;
  std::vector<std::string> labels;
  LabelCheckExpr(ExprPtr obj, std::vector<std::string> ls)
      : Expr(Kind::kLabelCheck), object(std::move(obj)), labels(std::move(ls)) {}
};

struct ListLiteralExpr : Expr {
  std::vector<ExprPtr> items;
  explicit ListLiteralExpr(std::vector<ExprPtr> xs)
      : Expr(Kind::kListLiteral), items(std::move(xs)) {}
};

struct MapLiteralExpr : Expr {
  std::vector<std::pair<std::string, ExprPtr>> entries;
  explicit MapLiteralExpr(std::vector<std::pair<std::string, ExprPtr>> es)
      : Expr(Kind::kMapLiteral), entries(std::move(es)) {}
};

struct FunctionCallExpr : Expr {
  std::string name;  // lowercased at parse time (function names are case-
                     // insensitive in Cypher)
  bool distinct = false;
  std::vector<ExprPtr> args;
  FunctionCallExpr(std::string n, bool d, std::vector<ExprPtr> a)
      : Expr(Kind::kFunctionCall),
        name(std::move(n)),
        distinct(d),
        args(std::move(a)) {}
};

struct CountStarExpr : Expr {
  CountStarExpr() : Expr(Kind::kCountStar) {}
};

struct BinaryExpr : Expr {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(Kind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
};

struct UnaryExpr : Expr {
  UnaryOp op;
  ExprPtr operand;
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(Kind::kUnary), op(o), operand(std::move(e)) {}
};

struct IndexExpr : Expr {
  ExprPtr object;
  ExprPtr index;
  IndexExpr(ExprPtr obj, ExprPtr idx)
      : Expr(Kind::kIndex), object(std::move(obj)), index(std::move(idx)) {}
};

struct SliceExpr : Expr {
  ExprPtr object;
  ExprPtr from;  // may be null (open start)
  ExprPtr to;    // may be null (open end)
  SliceExpr(ExprPtr obj, ExprPtr f, ExprPtr t)
      : Expr(Kind::kSlice),
        object(std::move(obj)),
        from(std::move(f)),
        to(std::move(t)) {}
};

struct CaseExpr : Expr {
  ExprPtr operand;  // null for searched CASE
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  ExprPtr otherwise;  // may be null (defaults to null)
  CaseExpr() : Expr(Kind::kCase) {}
};

struct ListComprehensionExpr : Expr {
  std::string var;
  ExprPtr list;
  ExprPtr where;    // may be null
  ExprPtr project;  // may be null (then the element itself)
  ListComprehensionExpr() : Expr(Kind::kListComprehension) {}
};

/// List-predicate quantifiers (part of §2's "powerful features" family):
/// all/any/none/single(x IN list WHERE predicate), with SQL-style 3VL over
/// the element results.
struct QuantifierExpr : Expr {
  enum class Quantifier : uint8_t { kAll, kAny, kNone, kSingle };
  Quantifier quantifier = Quantifier::kAll;
  std::string var;
  ExprPtr list;
  ExprPtr where;
  QuantifierExpr() : Expr(Kind::kQuantifier) {}
};

/// reduce(acc = init, x IN list | expr): left fold over a list.
struct ReduceExpr : Expr {
  std::string acc;
  ExprPtr init;
  std::string var;
  ExprPtr list;
  ExprPtr body;
  ReduceExpr() : Expr(Kind::kReduce) {}
};

// ---------------------------------------------------------------------------
// Patterns (Figure 3).
// ---------------------------------------------------------------------------

/// node_pattern ::= (a? label_list? map?)
struct NodePattern {
  std::optional<std::string> var;
  std::vector<std::string> labels;
  std::vector<std::pair<std::string, ExprPtr>> properties;
};

/// Direction of a relationship pattern: -->, <--, or undirected.
enum class Direction : uint8_t { kRight, kLeft, kBoth };

/// len ::= * | *d | *d1.. | *..d2 | *d1..d2 — nullopt min/max mean the
/// defaults (1 and ∞ per §4.2's range rule).
struct VarLength {
  std::optional<int64_t> min;
  std::optional<int64_t> max;
};

/// rel_pattern ::= -[a? type_list? len? map?]-> etc.
struct RelPattern {
  Direction direction = Direction::kBoth;
  std::optional<std::string> var;
  std::vector<std::string> types;
  std::vector<std::pair<std::string, ExprPtr>> properties;
  std::optional<VarLength> length;  // nullopt == rigid single hop (I = nil)
};

/// pattern◦ ::= node_pattern (rel_pattern node_pattern)*
struct PathPattern {
  std::optional<std::string> path_var;  // pattern ::= a = pattern◦
  NodePattern start;
  struct Hop {
    RelPattern rel;
    NodePattern node;
  };
  std::vector<Hop> hops;
};

/// pattern_tuple ::= pattern (, pattern)*
struct Pattern {
  std::vector<PathPattern> paths;
};

struct PatternPredicateExpr : Expr {
  Pattern pattern;
  PatternPredicateExpr() : Expr(Kind::kPatternPredicate) {}
};

// ---------------------------------------------------------------------------
// Clauses (Figure 5 plus the update language of §2 and the Cypher 10
// multiple-graph clauses of §6).
// ---------------------------------------------------------------------------

struct Clause {
  enum class Kind : uint8_t {
    kMatch,
    kWith,
    kReturn,
    kUnwind,
    kCreate,
    kDelete,
    kSet,
    kRemove,
    kMerge,
    kFromGraph,
    kReturnGraph,
  };
  Kind kind;
  explicit Clause(Kind k) : kind(k) {}
  virtual ~Clause() = default;
};

using ClausePtr = std::unique_ptr<Clause>;

/// One item of a RETURN/WITH projection list: expr [AS alias].
struct ReturnItem {
  ExprPtr expr;
  std::optional<std::string> alias;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

/// Shared body of RETURN and WITH: [DISTINCT] items [ORDER BY ...]
/// [SKIP e] [LIMIT e]; `star` for `*` (optionally with extra items).
struct ProjectionBody {
  bool distinct = false;
  bool star = false;
  std::vector<ReturnItem> items;
  std::vector<OrderItem> order_by;
  ExprPtr skip;
  ExprPtr limit;
};

struct MatchClause : Clause {
  bool optional = false;
  Pattern pattern;
  ExprPtr where;  // may be null
  MatchClause() : Clause(Kind::kMatch) {}
};

struct WithClause : Clause {
  ProjectionBody body;
  ExprPtr where;  // may be null; applies after projection
  WithClause() : Clause(Kind::kWith) {}
};

struct ReturnClause : Clause {
  ProjectionBody body;
  ReturnClause() : Clause(Kind::kReturn) {}
};

struct UnwindClause : Clause {
  ExprPtr expr;
  std::string var;
  UnwindClause() : Clause(Kind::kUnwind) {}
};

struct CreateClause : Clause {
  Pattern pattern;
  CreateClause() : Clause(Kind::kCreate) {}
};

struct DeleteClause : Clause {
  bool detach = false;
  std::vector<ExprPtr> exprs;
  DeleteClause() : Clause(Kind::kDelete) {}
};

/// SET item forms: n.k = e | n = {map} | n += {map} | n:Label1:Label2.
struct SetItem {
  enum class Kind : uint8_t { kProperty, kReplaceProps, kMergeProps, kLabels };
  Kind kind;
  ExprPtr target;                   // kProperty: the PropertyExpr target
  std::string var;                  // entity variable (other forms)
  ExprPtr value;                    // RHS for property/map forms
  std::vector<std::string> labels;  // kLabels
};

struct SetClause : Clause {
  std::vector<SetItem> items;
  SetClause() : Clause(Kind::kSet) {}
};

/// REMOVE item forms: n.k | n:Label1:Label2.
struct RemoveItem {
  enum class Kind : uint8_t { kProperty, kLabels };
  Kind kind;
  std::string var;
  std::string key;                  // kProperty
  std::vector<std::string> labels;  // kLabels
};

struct RemoveClause : Clause {
  std::vector<RemoveItem> items;
  RemoveClause() : Clause(Kind::kRemove) {}
};

struct MergeClause : Clause {
  PathPattern pattern;
  std::vector<SetItem> on_create;
  std::vector<SetItem> on_match;
  MergeClause() : Clause(Kind::kMerge) {}
};

/// Cypher 10 (§6): FROM GRAPH name [AT "url"] — switches the working graph
/// for the following reading clauses; Example 6.1.
struct FromGraphClause : Clause {
  std::string name;
  std::optional<std::string> url;
  FromGraphClause() : Clause(Kind::kFromGraph) {}
};

/// Cypher 10 (§6): RETURN GRAPH name OF pattern — projects a new graph
/// built from the pattern instantiated over the driving table.
struct ReturnGraphClause : Clause {
  std::string graph_name;
  Pattern pattern;
  ReturnGraphClause() : Clause(Kind::kReturnGraph) {}
};

// ---------------------------------------------------------------------------
// Queries (Figure 5 "queries": sequences of clauses, UNION [ALL]).
// ---------------------------------------------------------------------------

/// query◦ ::= clause* RETURN ... (read queries) — update queries may end
/// with an updating clause instead of RETURN.
struct SingleQuery {
  std::vector<ClausePtr> clauses;
};

/// query ::= query◦ (UNION [ALL] query◦)*
struct Query {
  std::vector<SingleQuery> parts;
  std::vector<bool> union_all;  // separator i joins parts[i] and parts[i+1]
};

/// Deep-copy helpers (the planner rewrites expression trees).
ExprPtr CloneExpr(const Expr& e);
NodePattern ClonePattern(const NodePattern& p);
RelPattern ClonePattern(const RelPattern& p);
PathPattern ClonePattern(const PathPattern& p);
Pattern ClonePattern(const Pattern& p);

// ---------------------------------------------------------------------------
// Traversal: the one place that knows which sub-expressions each Expr kind
// and each Clause kind holds. Every analysis or rewrite that recurses over
// expressions goes through these and keeps only the cases specific to it.
// Children are visited in source order; that order decides the synthetic
// `_pN` parameter names and which analyzer error is reported first.
//
// The const and mutable forms have different names on purpose: `*clause`
// on a `const std::vector<ClausePtr>` element is still a non-const
// `Clause&`, so overloads would silently pick the mutable form.
// ---------------------------------------------------------------------------

namespace internal {

/// `U`, const-qualified when `T` is.
template <class T, class U>
using LikeConst = std::conditional_t<std::is_const_v<T>, const U, U>;

template <class U, class T>
LikeConst<T, U>& As(T& x) {
  return static_cast<LikeConst<T, U>&>(x);
}

/// Calls `fn(slot)` for every expression slot of a property map.
template <class Props, class Fn>
void ForEachMapSlot(Props& props, Fn& fn) {
  for (auto& entry : props) fn(entry.second);
}

template <class P, class Fn>  // P: [const] PathPattern
void ForEachPathSlot(P& path, Fn& fn) {
  ForEachMapSlot(path.start.properties, fn);
  for (auto& hop : path.hops) {
    ForEachMapSlot(hop.rel.properties, fn);
    ForEachMapSlot(hop.node.properties, fn);
  }
}

template <class P, class Fn>  // P: [const] Pattern
void ForEachPatternSlot(P& pattern, Fn& fn) {
  for (auto& path : pattern.paths) ForEachPathSlot(path, fn);
}

template <class Items, class Fn>  // Items: [const] std::vector<SetItem>
void ForEachSetItemSlot(Items& items, Fn& fn) {
  for (auto& item : items) {
    fn(item.target);
    fn(item.value);
  }
}

template <class B, class Fn>  // B: [const] ProjectionBody
void ForEachBodySlot(B& body, Fn& fn) {
  for (auto& item : body.items) fn(item.expr);
  for (auto& order : body.order_by) fn(order.expr);
  fn(body.skip);
  fn(body.limit);
}

/// Calls `fn(slot)` for every direct sub-expression slot of `e`; a slot
/// may hold null. No `default:`, so a new kind fails -Wswitch here.
template <class E, class Fn>  // E: [const] Expr
void ForEachExprSlot(E& e, Fn& fn) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVariable:
    case Expr::Kind::kParameter:
    case Expr::Kind::kCountStar:
      return;
    case Expr::Kind::kProperty:
      fn(As<PropertyExpr>(e).object);
      return;
    case Expr::Kind::kLabelCheck:
      fn(As<LabelCheckExpr>(e).object);
      return;
    case Expr::Kind::kListLiteral:
      for (auto& item : As<ListLiteralExpr>(e).items) fn(item);
      return;
    case Expr::Kind::kMapLiteral:
      ForEachMapSlot(As<MapLiteralExpr>(e).entries, fn);
      return;
    case Expr::Kind::kFunctionCall:
      for (auto& arg : As<FunctionCallExpr>(e).args) fn(arg);
      return;
    case Expr::Kind::kBinary: {
      auto& b = As<BinaryExpr>(e);
      fn(b.lhs);
      fn(b.rhs);
      return;
    }
    case Expr::Kind::kUnary:
      fn(As<UnaryExpr>(e).operand);
      return;
    case Expr::Kind::kIndex: {
      auto& ix = As<IndexExpr>(e);
      fn(ix.object);
      fn(ix.index);
      return;
    }
    case Expr::Kind::kSlice: {
      auto& s = As<SliceExpr>(e);
      fn(s.object);
      fn(s.from);
      fn(s.to);
      return;
    }
    case Expr::Kind::kCase: {
      auto& c = As<CaseExpr>(e);
      fn(c.operand);
      for (auto& [when, then] : c.whens) {
        fn(when);
        fn(then);
      }
      fn(c.otherwise);
      return;
    }
    case Expr::Kind::kListComprehension: {
      auto& lc = As<ListComprehensionExpr>(e);
      fn(lc.list);
      fn(lc.where);
      fn(lc.project);
      return;
    }
    case Expr::Kind::kQuantifier: {
      auto& q = As<QuantifierExpr>(e);
      fn(q.list);
      fn(q.where);
      return;
    }
    case Expr::Kind::kReduce: {
      auto& r = As<ReduceExpr>(e);
      fn(r.init);
      fn(r.list);
      fn(r.body);
      return;
    }
    case Expr::Kind::kPatternPredicate:
      ForEachPatternSlot(As<PatternPredicateExpr>(e).pattern, fn);
      return;
  }
}

/// Calls `fn(slot)` for every expression slot of `c`: pattern property
/// maps, WHERE, projection items, ORDER BY, SKIP, LIMIT, UNWIND, DELETE,
/// and SET/MERGE targets and right-hand sides. A slot may hold null.
template <class C, class Fn>  // C: [const] Clause
void ForEachClauseSlot(C& c, Fn& fn) {
  switch (c.kind) {
    case Clause::Kind::kMatch: {
      auto& m = As<MatchClause>(c);
      ForEachPatternSlot(m.pattern, fn);
      fn(m.where);
      return;
    }
    case Clause::Kind::kWith: {
      auto& w = As<WithClause>(c);
      ForEachBodySlot(w.body, fn);
      fn(w.where);
      return;
    }
    case Clause::Kind::kReturn:
      ForEachBodySlot(As<ReturnClause>(c).body, fn);
      return;
    case Clause::Kind::kUnwind:
      fn(As<UnwindClause>(c).expr);
      return;
    case Clause::Kind::kCreate:
      ForEachPatternSlot(As<CreateClause>(c).pattern, fn);
      return;
    case Clause::Kind::kDelete:
      for (auto& e : As<DeleteClause>(c).exprs) fn(e);
      return;
    case Clause::Kind::kSet:
      ForEachSetItemSlot(As<SetClause>(c).items, fn);
      return;
    case Clause::Kind::kMerge: {
      auto& m = As<MergeClause>(c);
      ForEachPathSlot(m.pattern, fn);
      ForEachSetItemSlot(m.on_create, fn);
      ForEachSetItemSlot(m.on_match, fn);
      return;
    }
    case Clause::Kind::kReturnGraph:
      ForEachPatternSlot(As<ReturnGraphClause>(c).pattern, fn);
      return;
    case Clause::Kind::kRemove:
    case Clause::Kind::kFromGraph:
      return;
  }
}

}  // namespace internal

/// Calls `fn(const Expr&)` on each non-null direct sub-expression of `e`.
/// A pattern predicate's children are the expressions in its property
/// maps.
template <class Fn>
void ForEachChild(const Expr& e, Fn&& fn) {
  auto visit = [&fn](const ExprPtr& slot) {
    if (slot) fn(static_cast<const Expr&>(*slot));
  };
  internal::ForEachExprSlot(e, visit);
}

/// Mutable form of ForEachChild: calls `fn(ExprPtr&)` on each non-null
/// direct sub-expression slot of `e`, which `fn` may replace.
template <class Fn>
void ForEachChildSlot(Expr& e, Fn&& fn) {
  auto visit = [&fn](ExprPtr& slot) {
    if (slot) fn(slot);
  };
  internal::ForEachExprSlot(e, visit);
}

/// Calls `fn(const Expr&)` on each non-null top-level expression of `c`
/// (see internal::ForEachClauseSlot for the list of slots).
template <class Fn>
void ForEachClauseExpr(const Clause& c, Fn&& fn) {
  auto visit = [&fn](const ExprPtr& slot) {
    if (slot) fn(static_cast<const Expr&>(*slot));
  };
  internal::ForEachClauseSlot(c, visit);
}

/// Mutable form of ForEachClauseExpr: calls `fn(ExprPtr&)` on each
/// non-null top-level expression slot of `c`.
template <class Fn>
void ForEachClauseExprSlot(Clause& c, Fn&& fn) {
  auto visit = [&fn](ExprPtr& slot) {
    if (slot) fn(slot);
  };
  internal::ForEachClauseSlot(c, visit);
}

}  // namespace ast
}  // namespace gqlite

#endif  // GQLITE_FRONTEND_AST_H_
