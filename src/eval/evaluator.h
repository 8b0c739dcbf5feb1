#ifndef GQLITE_EVAL_EVALUATOR_H_
#define GQLITE_EVAL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/frontend/ast.h"
#include "src/graph/property_graph.h"
#include "src/value/value_compare.h"

namespace gqlite {

/// A variable-binding environment (the assignment u of the paper). The
/// evaluator resolves VariableExpr through this interface; list
/// comprehensions push overlay environments.
class Environment {
 public:
  virtual ~Environment() = default;
  /// Pointer to the value bound to `name`, or nullptr if unbound. The
  /// pointee lives in the environment's backing storage (a row, a map, an
  /// overlay binding) — no Value is materialized by a lookup; callers
  /// copy only when they need ownership.
  virtual const Value* Lookup(const std::string& name) const = 0;
};

/// Environment over an explicit map (tests, parameters-only evaluation).
class MapEnvironment : public Environment {
 public:
  MapEnvironment() = default;
  explicit MapEnvironment(ValueMap vars) : vars_(std::move(vars)) {}
  void Set(const std::string& name, Value v) { vars_[name] = std::move(v); }
  const Value* Lookup(const std::string& name) const override {
    auto it = vars_.find(name);
    if (it == vars_.end()) return nullptr;
    return &it->second;
  }

 private:
  ValueMap vars_;
};

/// One extra binding layered over a base environment (list comprehension
/// iteration variable).
class OverlayEnvironment : public Environment {
 public:
  OverlayEnvironment(const Environment& base, const std::string& name,
                     const Value& v)
      : base_(base), name_(name), value_(v) {}
  const Value* Lookup(const std::string& name) const override {
    if (name == name_) return &value_;
    return base_.Lookup(name);
  }

 private:
  const Environment& base_;
  const std::string& name_;
  const Value& value_;
};

/// Environment over a schema (column names) and one positional row — the
/// row view of both runtimes and the update executor. With `second`, the
/// schema's columns from `first_width` on are `second`'s (CompiledExpr's
/// two-row view: a projected row, then its source row).
class SchemaRowEnvironment : public Environment {
 public:
  SchemaRowEnvironment(const std::vector<std::string>& schema,
                       const ValueList& row, size_t first_width = SIZE_MAX,
                       const ValueList* second = nullptr)
      : schema_(schema), row_(row), first_width_(first_width),
        second_(second) {}
  const Value* Lookup(const std::string& name) const override {
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (schema_[i] != name) continue;
      if (i < first_width_) return i < row_.size() ? &row_[i] : nullptr;
      size_t j = i - first_width_;
      return second_ != nullptr && j < second_->size() ? &(*second_)[j]
                                                        : nullptr;
    }
    return nullptr;
  }

 private:
  const std::vector<std::string>& schema_;
  const ValueList& row_;
  size_t first_width_;
  const ValueList* second_;
};

/// Context threaded through expression evaluation: the graph G (for
/// property/label access — ⟦expr⟧G,u is parameterized by G), the query
/// parameters, and a hook for evaluating pattern predicates (wired up by
/// the interpreter layer, which owns pattern matching; this breaks the
/// eval↔pattern dependency cycle).
struct EvalContext {
  const PropertyGraph* graph = nullptr;
  const ValueMap* parameters = nullptr;
  std::function<Result<bool>(const ast::Pattern&, const Environment&)>
      pattern_predicate;
  /// Deterministic PRNG state for rand(); owned by the engine.
  uint64_t* rand_state = nullptr;
};

/// Evaluates ⟦expr⟧G,u (§4.3). Type errors (e.g. `1 + true`) are
/// kTypeError; nulls propagate per SQL/Cypher rules and never error.
Result<Value> EvaluateExpr(const ast::Expr& e, const Environment& env,
                           const EvalContext& ctx);

/// Evaluates an expression to a Tri for WHERE filtering: true/false/null;
/// non-boolean non-null values are a type error.
Result<Tri> EvaluatePredicate(const ast::Expr& e, const Environment& env,
                              const EvalContext& ctx);

/// An expression compiled against the columns of the rows it will see:
/// the Volcano runtime's form of ⟦expr⟧G,u. The reference interpreter
/// never uses it and keeps resolving names through EvaluateExpr.
///
/// It is prepared in two steps, at two times:
/// - Compile() runs when an operator is built. Variables become column
///   indexes.
/// - Bind() runs in every Open(), because a cached plan is rebound to a
///   new snapshot, parameter map and PRNG before each execution. Property
///   keys and labels resolve to the bound graph's SymbolIds; a key the
///   graph never interned reads as absent. Parameters resolve to pointers
///   into the bound parameter map.
/// A leaf that meets a graph or parameter map other than the one it was
/// bound to resolves by name instead.
///
/// Leaves (column, parameter, literal, node, relationship and map
/// property) evaluate to a pointer into the row, the parameter map, the
/// AST or the graph record, so evaluating one copies nothing. Comparisons
/// and AND/OR/XOR/NOT evaluate straight to Tri. Compiled nodes call the
/// interpreter's own helpers, and every kind the compiler does not handle
/// (CASE, comprehensions, function calls, ...) evaluates its subtree
/// through EvaluateExpr over the row's schema, so values, null
/// propagation and error texts are those of EvaluateExpr by construction
/// (the fallback's environment is a SchemaRowEnvironment).
///
/// Evaluation writes this object's scratch values, so one thread at a
/// time evaluates it; every operator instance owns its own.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// Compiles `e`, which must outlive the result, for rows whose columns
  /// are `schema`. A variable missing from `schema` is looked up in
  /// `second_schema`, the columns of an optional second row (ORDER BY sees
  /// a projected row over its source row: output shadows input).
  static CompiledExpr Compile(const ast::Expr& e,
                              const std::vector<std::string>& schema,
                              const std::vector<std::string>& second_schema =
                                  {});

  /// Reads the execution-scoped state of `ctx`, which must stay alive
  /// until the next Bind().
  void Bind(const EvalContext& ctx);

  /// ⟦expr⟧ for `row` (and `second`, when compiled with a second schema).
  /// The result points into the row, the parameter map, the AST, the
  /// graph or this object's scratch values; copy it before the next
  /// evaluation.
  Result<const Value*> Evaluate(const ValueList& row,
                                const ValueList* second = nullptr) const;

  /// EvaluatePredicate's contract: true, false or null; a non-boolean
  /// non-null value is a type error.
  Result<Tri> EvaluatePredicate(const ValueList& row) const;

 private:
  enum class Op : uint8_t {
    kColumn,
    kParameter,
    kLiteral,
    kProperty,
    kLabels,
    kCompare,  // = <> < <= > >=, to Tri
    kLogic,    // AND OR XOR, to Tri
    kNot,
    kIsNull,
    kIsNotNull,
    kBinary,    // arithmetic, IN and the string predicates
    kUnary,     // unary minus and plus
    kFallback,  // EvaluateExpr over the row's schema
  };
  struct Node {
    Op op = Op::kFallback;
    const ast::Expr* expr = nullptr;
    int lhs = -1;
    int rhs = -1;
    size_t column = 0;    // kColumn
    bool second = false;  // kColumn: of the second row
    // Bound per execution.
    SymbolId key = kNoSymbol;       // kProperty
    std::vector<SymbolId> labels;   // kLabels
    const Value* param = nullptr;   // kParameter; null when unresolved
  };
  struct Rows {
    const ValueList* first;
    const ValueList* second;
  };

  int Add(const ast::Expr& e);
  /// The value of node i; null after setting `*err` on an error.
  const Value* Ref(int i, const Rows& rows, Status* err) const;
  /// Ref's cases that compute or fail. `obj` is a kProperty node's
  /// evaluated object.
  [[gnu::noinline]] const Value* Compute(int i, const Rows& rows,
                                         const Value* obj, Status* err) const;
  /// The Tri of node i (kNull after setting `*err` on an error). A value
  /// that is neither null nor boolean is not an error here: it lands in
  /// `*bad`, so AND, OR, XOR and NOT raise their type errors only after
  /// evaluating both sides, exactly as EvaluateExpr does.
  Tri TriOf(int i, const Rows& rows, const Value** bad, Status* err) const;

  std::vector<Node> nodes_;
  /// One value per node for what it computes (an evaluation evaluates
  /// each node at most once), so evaluating allocates nothing per node.
  mutable std::vector<Value> scratch_;
  std::vector<std::string> schema_;  // first row's columns, then second's
  size_t first_width_ = 0;
  const EvalContext* ctx_ = nullptr;
  const PropertyGraph* bound_graph_ = nullptr;
  const ValueMap* bound_params_ = nullptr;
};

/// Checked int64 addition shared by the `+` operator and the sum()/avg()
/// aggregators: raises `EvaluationError: integer overflow` instead of
/// wrapping (which is UB in C++ and wrong under openCypher semantics).
Result<int64_t> CheckedAddInt64(int64_t a, int64_t b);

}  // namespace gqlite

#endif  // GQLITE_EVAL_EVALUATOR_H_
