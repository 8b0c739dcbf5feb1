#include "src/eval/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <regex>

#include "src/common/string_util.h"
#include "src/eval/functions.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/ast_printer.h"
#include "src/value/value_format.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

namespace {

Status TypeErr(const std::string& what, const Value& v) {
  return Status::TypeError(what + " (got " + ValueTypeName(v.type()) + ")");
}

Value TriToValue(Tri t) {
  switch (t) {
    case Tri::kTrue:
      return Value::Bool(true);
    case Tri::kFalse:
      return Value::Bool(false);
    case Tri::kNull:
      return Value::Null();
  }
  return Value::Null();
}

Result<Tri> AsTri(const Value& v, const char* op) {
  if (v.is_null()) return Tri::kNull;
  if (v.is_bool()) return TriFromBool(v.AsBool());
  return Status::TypeError(std::string(op) +
                           " requires a boolean operand (got " +
                           ValueTypeName(v.type()) + ")");
}

/// Temporal component access (`d.year`, `t.hour`, `dur.days`, ...); any
/// other non-graph, non-map value is a type error.
Result<Value> TemporalComponent(const Value& obj, std::string_view key) {
  switch (obj.type()) {
    case ValueType::kDate: {
      Date d = obj.AsDate();
      if (key == "year") return Value::Int(d.year());
      if (key == "month") return Value::Int(d.month());
      if (key == "day") return Value::Int(d.day());
      if (key == "dayOfWeek" || key == "weekDay") {
        return Value::Int(DayOfWeek(d.days_since_epoch) + 1);  // ISO 1..7
      }
      if (key == "epochDays") return Value::Int(d.days_since_epoch);
      return Status::EvaluationError("unknown Date component `" +
                                     std::string(key) + "`");
    }
    case ValueType::kLocalTime:
    case ValueType::kTime: {
      LocalTime t = obj.type() == ValueType::kTime ? obj.AsTime().local
                                                   : obj.AsLocalTime();
      if (key == "hour") return Value::Int(t.hour());
      if (key == "minute") return Value::Int(t.minute());
      if (key == "second") return Value::Int(t.second());
      if (key == "millisecond") return Value::Int(t.nanosecond() / 1000000);
      if (key == "microsecond") return Value::Int(t.nanosecond() / 1000);
      if (key == "nanosecond") return Value::Int(t.nanosecond());
      if (key == "offsetSeconds" && obj.type() == ValueType::kTime) {
        return Value::Int(obj.AsTime().offset_seconds);
      }
      return Status::EvaluationError("unknown time component `" +
                                     std::string(key) + "`");
    }
    case ValueType::kLocalDateTime:
    case ValueType::kDateTime: {
      LocalDateTime dt = obj.type() == ValueType::kDateTime
                             ? obj.AsDateTime().local
                             : obj.AsLocalDateTime();
      if (key == "offsetSeconds" && obj.type() == ValueType::kDateTime) {
        return Value::Int(obj.AsDateTime().offset_seconds);
      }
      if (key == "epochSeconds") {
        if (obj.type() == ValueType::kDateTime) {
          return Value::Int(obj.AsDateTime().InstantNanos() / kNanosPerSecond);
        }
        return Value::Int(dt.EpochSeconds());
      }
      // Delegate to the date components first, then the time components.
      Result<Value> dr = TemporalComponent(Value::Temporal(dt.date), key);
      if (dr.ok()) return dr;
      return TemporalComponent(Value::Temporal(dt.time), key);
    }
    case ValueType::kDuration: {
      const Duration& d = obj.AsDuration();
      if (key == "months") return Value::Int(d.months);
      if (key == "days") return Value::Int(d.days);
      if (key == "seconds") return Value::Int(d.seconds);
      if (key == "nanoseconds") return Value::Int(d.nanos);
      if (key == "years") return Value::Int(d.months / 12);
      if (key == "hours") return Value::Int(d.seconds / 3600);
      if (key == "minutes") return Value::Int(d.seconds / 60);
      return Status::EvaluationError("unknown Duration component `" +
                                     std::string(key) + "`");
    }
    default:
      return TypeErr("property access requires a map, node, relationship or "
                     "temporal value",
                     obj);
  }
}

/// Property/component access on a value: maps index by key; nodes and
/// relationships consult ι; temporal values expose their components. The
/// result points into the map payload or the graph record where one
/// exists; a computed component lands in `*scratch`. `key_id`, when
/// non-null, is `key` already resolved against ctx.graph.
Result<const Value*> PropertyRef(const Value& obj, std::string_view key,
                                 const SymbolId* key_id,
                                 const EvalContext& ctx, Value* scratch) {
  static const Value kNull;
  switch (obj.type()) {
    case ValueType::kNull:
      return &kNull;
    case ValueType::kMap: {
      auto it = obj.AsMap().find(key);
      return it == obj.AsMap().end() ? &kNull : &it->second;
    }
    case ValueType::kNode:
      if (ctx.graph == nullptr) {
        return Status::EvaluationError("no graph bound for property access");
      }
      if (!ctx.graph->IsNodeAlive(obj.AsNode())) {
        return Status::EvaluationError(
            "cannot access property of a deleted node");
      }
      return key_id != nullptr
                 ? &ctx.graph->NodePropertyById(obj.AsNode(), *key_id)
                 : &ctx.graph->NodeProperty(obj.AsNode(), key);
    case ValueType::kRelationship:
      if (ctx.graph == nullptr) {
        return Status::EvaluationError("no graph bound for property access");
      }
      if (!ctx.graph->IsRelAlive(obj.AsRelationship())) {
        return Status::EvaluationError(
            "cannot access property of a deleted relationship");
      }
      return key_id != nullptr
                 ? &ctx.graph->RelPropertyById(obj.AsRelationship(), *key_id)
                 : &ctx.graph->RelProperty(obj.AsRelationship(), key);
    default:
      GQL_ASSIGN_OR_RETURN(*scratch, TemporalComponent(obj, key));
      return static_cast<const Value*>(scratch);
  }
}

Result<Value> AccessProperty(const Value& obj, std::string_view key,
                             const EvalContext& ctx) {
  Value scratch;
  GQL_ASSIGN_OR_RETURN(const Value* v,
                       PropertyRef(obj, key, nullptr, ctx, &scratch));
  return *v;
}

/// `$name` in the execution's parameter map.
Result<const Value*> ParameterRef(const std::string& name,
                                  const EvalContext& ctx) {
  if (ctx.parameters == nullptr) {
    return Status::EvaluationError("no parameters supplied");
  }
  auto it = ctx.parameters->find(name);
  if (it == ctx.parameters->end()) {
    return Status::EvaluationError("missing query parameter $" + name);
  }
  return &it->second;
}

/// The label predicate `obj:L1:L2...`. `ids`, when non-null, are the
/// labels already resolved against ctx.graph.
Result<Tri> HasLabels(const Value& obj, const std::vector<std::string>& labels,
                      const std::vector<SymbolId>* ids,
                      const EvalContext& ctx) {
  if (obj.is_null()) return Tri::kNull;
  if (!obj.is_node()) {
    return TypeErr("label predicate requires a node", obj);
  }
  if (ctx.graph == nullptr || !ctx.graph->IsNodeAlive(obj.AsNode())) {
    return Status::EvaluationError("label check on a deleted node");
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    bool has = ids != nullptr
                   ? ctx.graph->NodeHasLabelId(obj.AsNode(), (*ids)[i])
                   : ctx.graph->NodeHasLabel(obj.AsNode(), labels[i]);
    if (!has) return Tri::kFalse;
  }
  return Tri::kTrue;
}

/// = <> < <= > >= under three-valued logic.
Tri CompareValues(BinaryOp op, const Value& lv, const Value& rv) {
  switch (op) {
    case BinaryOp::kEq:
      return ValueEquals(lv, rv);
    case BinaryOp::kNeq:
      return TriNot(ValueEquals(lv, rv));
    case BinaryOp::kLt:
      return ValueLess(lv, rv);
    case BinaryOp::kLe:
      return TriOr(ValueLess(lv, rv), ValueEquals(lv, rv));
    case BinaryOp::kGt:
      return ValueLess(rv, lv);
    default:  // kGe
      return TriOr(ValueLess(rv, lv), ValueEquals(lv, rv));
  }
}

Tri CombineTri(BinaryOp op, Tri lt, Tri rt) {
  return op == BinaryOp::kAnd
             ? TriAnd(lt, rt)
             : (op == BinaryOp::kOr ? TriOr(lt, rt) : TriXor(lt, rt));
}

Result<Value> Arith(BinaryOp op, const Value& a, const Value& b);

}  // namespace

Result<int64_t> CheckedAddInt64(int64_t a, int64_t b) {
  int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return Status::EvaluationError("integer overflow: " + std::to_string(a) +
                                   " + " + std::to_string(b));
  }
  return r;
}

namespace {

Result<Value> Arith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // String concatenation: 'a' + x.
  if (op == BinaryOp::kAdd) {
    if (a.is_string() && b.is_string()) {
      std::string_view x = a.AsString();
      std::string_view y = b.AsString();
      std::string out;
      out.reserve(x.size() + y.size());
      out += x;
      out += y;
      return Value::String(std::move(out));
    }
    if (a.is_string() && b.is_number()) {
      std::string out(a.AsString());
      out += b.is_int() ? std::to_string(b.AsInt()) : FormatFloat(b.AsFloat());
      return Value::String(std::move(out));
    }
    if (a.is_number() && b.is_string()) {
      std::string out = a.is_int() ? std::to_string(a.AsInt())
                                   : FormatFloat(a.AsFloat());
      out += b.AsString();
      return Value::String(std::move(out));
    }
    if (a.is_list() && b.is_list()) {
      ValueList out = a.AsList();  // new payload: payloads are immutable
      out.insert(out.end(), b.AsList().begin(), b.AsList().end());
      return Value::MakeList(std::move(out));
    }
    if (a.is_list()) {
      ValueList out = a.AsList();
      out.push_back(b);
      return Value::MakeList(std::move(out));
    }
    if (b.is_list()) {
      ValueList out;
      out.push_back(a);
      out.insert(out.end(), b.AsList().begin(), b.AsList().end());
      return Value::MakeList(std::move(out));
    }
    // Temporal arithmetic.
    if (a.is_temporal() && b.type() == ValueType::kDuration) {
      switch (a.type()) {
        case ValueType::kDate:
          return Value::Temporal(AddDuration(a.AsDate(), b.AsDuration()));
        case ValueType::kLocalDateTime:
          return Value::Temporal(
              AddDuration(a.AsLocalDateTime(), b.AsDuration()));
        case ValueType::kDateTime:
          return Value::Temporal(AddDuration(a.AsDateTime(), b.AsDuration()));
        case ValueType::kLocalTime:
          return Value::Temporal(AddDuration(a.AsLocalTime(), b.AsDuration()));
        case ValueType::kTime: {
          ZonedTime t = a.AsTime();
          t.local = AddDuration(t.local, b.AsDuration());
          return Value::Temporal(t);
        }
        case ValueType::kDuration:
          return Value::Temporal(a.AsDuration() + b.AsDuration());
        default:
          break;
      }
    }
    if (a.type() == ValueType::kDuration && b.is_temporal()) {
      return Arith(BinaryOp::kAdd, b, a);  // duration + instant commutes
    }
  }
  if (op == BinaryOp::kSub) {
    if (a.type() == ValueType::kDuration && b.type() == ValueType::kDuration) {
      return Value::Temporal(a.AsDuration() - b.AsDuration());
    }
    if (a.is_temporal() && b.type() == ValueType::kDuration) {
      return Arith(BinaryOp::kAdd, a,
                   Value::Temporal(b.AsDuration().Negated()));
    }
    // instant - instant → duration (exact difference).
    if (a.type() == ValueType::kDate && b.type() == ValueType::kDate) {
      return Value::Temporal(DurationBetween(b.AsDate(), a.AsDate()));
    }
    if (a.type() == ValueType::kLocalDateTime &&
        b.type() == ValueType::kLocalDateTime) {
      return Value::Temporal(
          DurationBetween(b.AsLocalDateTime(), a.AsLocalDateTime()));
    }
    if (a.type() == ValueType::kDateTime && b.type() == ValueType::kDateTime) {
      return Value::Temporal(DurationBetween(b.AsDateTime(), a.AsDateTime()));
    }
  }
  if (op == BinaryOp::kMul && a.type() == ValueType::kDuration && b.is_int()) {
    return Value::Temporal(a.AsDuration().ScaledBy(b.AsInt()));
  }
  if (op == BinaryOp::kMul && b.type() == ValueType::kDuration && a.is_int()) {
    return Value::Temporal(b.AsDuration().ScaledBy(a.AsInt()));
  }
  if (!a.is_number() || !b.is_number()) {
    return Status::TypeError(std::string("operator ") + BinaryOpName(op) +
                             " cannot combine " + ValueTypeName(a.type()) +
                             " and " + ValueTypeName(b.type()));
  }
  if (op == BinaryOp::kPow) {
    return Value::Float(std::pow(a.AsNumber(), b.AsNumber()));
  }
  if (a.is_int() && b.is_int()) {
    // Integer arithmetic must raise on overflow (openCypher; wrapping is
    // UB in C++), so every op goes through a checked builtin.
    int64_t x = a.AsInt(), y = b.AsInt();
    int64_t r = 0;
    switch (op) {
      case BinaryOp::kAdd: {
        GQL_ASSIGN_OR_RETURN(r, CheckedAddInt64(x, y));
        return Value::Int(r);
      }
      case BinaryOp::kSub:
        if (__builtin_sub_overflow(x, y, &r)) {
          return Status::EvaluationError("integer overflow: " +
                                         std::to_string(x) + " - " +
                                         std::to_string(y));
        }
        return Value::Int(r);
      case BinaryOp::kMul:
        if (__builtin_mul_overflow(x, y, &r)) {
          return Status::EvaluationError("integer overflow: " +
                                         std::to_string(x) + " * " +
                                         std::to_string(y));
        }
        return Value::Int(r);
      case BinaryOp::kDiv:
        if (y == 0) return Status::EvaluationError("division by zero");
        if (x == INT64_MIN && y == -1) {
          return Status::EvaluationError("integer overflow: " +
                                         std::to_string(x) + " / -1");
        }
        return Value::Int(x / y);
      case BinaryOp::kMod:
        if (y == 0) return Status::EvaluationError("modulo by zero");
        if (y == -1) return Value::Int(0);  // INT64_MIN % -1 is UB
        return Value::Int(x % y);
      default:
        break;
    }
  }
  double x = a.AsNumber(), y = b.AsNumber();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Float(x + y);
    case BinaryOp::kSub:
      return Value::Float(x - y);
    case BinaryOp::kMul:
      return Value::Float(x * y);
    case BinaryOp::kDiv:
      return Value::Float(x / y);
    case BinaryOp::kMod:
      return Value::Float(std::fmod(x, y));
    default:
      break;
  }
  return Status::Internal("unhandled arithmetic operator");
}

Result<Value> StringPredicate(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_string() || !b.is_string()) {
    // Neo4j yields null when either operand is non-string.
    return Value::Null();
  }
  switch (op) {
    case BinaryOp::kStartsWith:
      return Value::Bool(StartsWith(a.AsString(), b.AsString()));
    case BinaryOp::kEndsWith:
      return Value::Bool(EndsWith(a.AsString(), b.AsString()));
    case BinaryOp::kContains:
      return Value::Bool(Contains(a.AsString(), b.AsString()));
    case BinaryOp::kRegexMatch: {
      std::string_view s = a.AsString();
      std::string_view pattern = b.AsString();
      try {
        std::regex re(pattern.begin(), pattern.end());
        return Value::Bool(std::regex_match(s.begin(), s.end(), re));
      } catch (const std::regex_error&) {
        return Status::EvaluationError("invalid regular expression: " +
                                       std::string(b.AsString()));
      }
    }
    default:
      return Status::Internal("unhandled string predicate");
  }
}

Result<Value> InList(const Value& needle, const Value& hay) {
  if (hay.is_null()) return Value::Null();
  if (!hay.is_list()) {
    return TypeErr("IN requires a list on the right-hand side", hay);
  }
  bool saw_null = false;
  for (const Value& e : hay.AsList()) {
    Tri t = ValueEquals(needle, e);
    if (t == Tri::kTrue) return Value::Bool(true);
    if (t == Tri::kNull) saw_null = true;
  }
  return saw_null ? Value::Null() : Value::Bool(false);
}

Result<Value> IndexValue(const Value& obj, const Value& idx,
                         const EvalContext& ctx) {
  if (obj.is_null() || idx.is_null()) return Value::Null();
  if (obj.is_list()) {
    if (!idx.is_int()) return TypeErr("list index must be an integer", idx);
    int64_t i = idx.AsInt();
    int64_t n = static_cast<int64_t>(obj.AsList().size());
    if (i < 0) i += n;  // negative indexes from the end
    if (i < 0 || i >= n) return Value::Null();
    return obj.AsList()[i];
  }
  if (obj.is_map() || obj.is_node() || obj.is_relationship()) {
    if (!idx.is_string()) return TypeErr("key must be a string", idx);
    return AccessProperty(obj, idx.AsString(), ctx);
  }
  return TypeErr("indexing requires a list or map", obj);
}

Result<Value> SliceValue(const Value& obj, const Value& from, const Value& to) {
  if (obj.is_null() || from.is_null() || to.is_null()) return Value::Null();
  if (!obj.is_list()) return TypeErr("slicing requires a list", obj);
  if (!from.is_int() || !to.is_int()) {
    return Status::TypeError("slice bounds must be integers");
  }
  int64_t n = static_cast<int64_t>(obj.AsList().size());
  int64_t lo = from.AsInt();
  int64_t hi = to.AsInt();
  if (lo < 0) lo += n;
  if (hi < 0) hi += n;
  lo = std::max<int64_t>(0, std::min(lo, n));
  hi = std::max<int64_t>(0, std::min(hi, n));
  ValueList out;
  for (int64_t i = lo; i < hi; ++i) out.push_back(obj.AsList()[i]);
  return Value::MakeList(std::move(out));
}

/// Every binary operator except AND/OR/XOR, over evaluated operands.
Result<Value> ApplyBinary(BinaryOp op, const Value& lv, const Value& rv) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return TriToValue(CompareValues(op, lv, rv));
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
    case BinaryOp::kPow:
      return Arith(op, lv, rv);
    case BinaryOp::kIn:
      if (lv.is_null() && rv.is_null()) return Value::Null();
      return InList(lv, rv);
    case BinaryOp::kStartsWith:
    case BinaryOp::kEndsWith:
    case BinaryOp::kContains:
    case BinaryOp::kRegexMatch:
      return StringPredicate(op, lv, rv);
    default:
      return Status::Internal("unhandled binary operator");
  }
}

/// Every unary operator, over an evaluated operand.
Result<Value> ApplyUnary(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot: {
      GQL_ASSIGN_OR_RETURN(Tri t, AsTri(v, "NOT"));
      return TriToValue(TriNot(t));
    }
    case UnaryOp::kMinus:
      if (v.is_null()) return Value::Null();
      if (v.is_int()) {
        if (v.AsInt() == INT64_MIN) {
          return Status::EvaluationError(
              "integer overflow: -(" + std::to_string(v.AsInt()) + ")");
        }
        return Value::Int(-v.AsInt());
      }
      if (v.is_float()) return Value::Float(-v.AsFloat());
      if (v.type() == ValueType::kDuration) {
        return Value::Temporal(v.AsDuration().Negated());
      }
      return TypeErr("unary minus requires a number", v);
    case UnaryOp::kPlus:
      if (v.is_null() || v.is_number()) return v;
      return TypeErr("unary plus requires a number", v);
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("unhandled unary operator");
}

Status PredicateTypeErr(const Value& v) {
  return Status::TypeError(
      "predicate must evaluate to a boolean or null (got " +
      std::string(ValueTypeName(v.type())) + ")");
}

}  // namespace

Result<Value> EvaluateExpr(const Expr& e, const Environment& env,
                           const EvalContext& ctx) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value;
    case Expr::Kind::kVariable: {
      const auto& v = static_cast<const VariableExpr&>(e);
      const Value* val = env.Lookup(v.name);
      if (val == nullptr) {
        return Status::EvaluationError("variable `" + v.name +
                                       "` is not bound");
      }
      return *val;
    }
    case Expr::Kind::kParameter: {
      const auto& p = static_cast<const ParameterExpr&>(e);
      GQL_ASSIGN_OR_RETURN(const Value* v, ParameterRef(p.name, ctx));
      return *v;
    }
    case Expr::Kind::kProperty: {
      const auto& p = static_cast<const PropertyExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value obj, EvaluateExpr(*p.object, env, ctx));
      return AccessProperty(obj, p.key, ctx);
    }
    case Expr::Kind::kLabelCheck: {
      const auto& p = static_cast<const LabelCheckExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value obj, EvaluateExpr(*p.object, env, ctx));
      GQL_ASSIGN_OR_RETURN(Tri t, HasLabels(obj, p.labels, nullptr, ctx));
      return TriToValue(t);
    }
    case Expr::Kind::kListLiteral: {
      const auto& p = static_cast<const ListLiteralExpr&>(e);
      ValueList out;
      out.reserve(p.items.size());
      for (const auto& i : p.items) {
        GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*i, env, ctx));
        out.push_back(std::move(v));
      }
      return Value::MakeList(std::move(out));
    }
    case Expr::Kind::kMapLiteral: {
      const auto& p = static_cast<const MapLiteralExpr&>(e);
      ValueMap out;
      for (const auto& [k, v] : p.entries) {
        GQL_ASSIGN_OR_RETURN(Value val, EvaluateExpr(*v, env, ctx));
        out[k] = std::move(val);
      }
      return Value::MakeMap(std::move(out));
    }
    case Expr::Kind::kCountStar:
      return Status::EvaluationError(
          "count(*) is only valid in RETURN/WITH projections");
    case Expr::Kind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      if (IsAggregateFunction(f.name)) {
        return Status::EvaluationError(
            "aggregate function " + f.name +
            " is only valid in RETURN/WITH projections");
      }
      // exists(...): pattern predicates delegate to the matcher; any other
      // argument tests for null (absent property).
      if (f.name == "exists" && f.args.size() == 1) {
        if (f.args[0]->kind == Expr::Kind::kPatternPredicate) {
          return EvaluateExpr(*f.args[0], env, ctx);
        }
        GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*f.args[0], env, ctx));
        return Value::Bool(!v.is_null());
      }
      std::vector<Value> args;
      args.reserve(f.args.size());
      for (const auto& a : f.args) {
        GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*a, env, ctx));
        args.push_back(std::move(v));
      }
      return CallFunction(f.name, args, ctx);
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value lv, EvaluateExpr(*b.lhs, env, ctx));
      GQL_ASSIGN_OR_RETURN(Value rv, EvaluateExpr(*b.rhs, env, ctx));
      if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr ||
          b.op == BinaryOp::kXor) {
        // No short-circuit: both sides evaluate before either is checked.
        GQL_ASSIGN_OR_RETURN(Tri lt, AsTri(lv, BinaryOpName(b.op)));
        GQL_ASSIGN_OR_RETURN(Tri rt, AsTri(rv, BinaryOpName(b.op)));
        return TriToValue(CombineTri(b.op, lt, rt));
      }
      return ApplyBinary(b.op, lv, rv);
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*u.operand, env, ctx));
      return ApplyUnary(u.op, v);
    }
    case Expr::Kind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value obj, EvaluateExpr(*i.object, env, ctx));
      GQL_ASSIGN_OR_RETURN(Value idx, EvaluateExpr(*i.index, env, ctx));
      return IndexValue(obj, idx, ctx);
    }
    case Expr::Kind::kSlice: {
      const auto& s = static_cast<const SliceExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value obj, EvaluateExpr(*s.object, env, ctx));
      Value from = Value::Int(0);
      if (s.from) {
        GQL_ASSIGN_OR_RETURN(from, EvaluateExpr(*s.from, env, ctx));
      }
      Value to = obj.is_list()
                     ? Value::Int(static_cast<int64_t>(obj.AsList().size()))
                     : Value::Null();
      if (s.to) {
        GQL_ASSIGN_OR_RETURN(to, EvaluateExpr(*s.to, env, ctx));
      }
      if (!obj.is_null() && !obj.is_list()) {
        return TypeErr("slicing requires a list", obj);
      }
      if (obj.is_null()) return Value::Null();
      return SliceValue(obj, from, to);
    }
    case Expr::Kind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      if (c.operand) {
        GQL_ASSIGN_OR_RETURN(Value op, EvaluateExpr(*c.operand, env, ctx));
        for (const auto& [w, t] : c.whens) {
          GQL_ASSIGN_OR_RETURN(Value wv, EvaluateExpr(*w, env, ctx));
          if (ValueEquals(op, wv) == Tri::kTrue) {
            return EvaluateExpr(*t, env, ctx);
          }
        }
      } else {
        for (const auto& [w, t] : c.whens) {
          GQL_ASSIGN_OR_RETURN(Value wv, EvaluateExpr(*w, env, ctx));
          GQL_ASSIGN_OR_RETURN(Tri wt, AsTri(wv, "CASE WHEN"));
          if (wt == Tri::kTrue) return EvaluateExpr(*t, env, ctx);
        }
      }
      if (c.otherwise) return EvaluateExpr(*c.otherwise, env, ctx);
      return Value::Null();
    }
    case Expr::Kind::kListComprehension: {
      const auto& c = static_cast<const ListComprehensionExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value list, EvaluateExpr(*c.list, env, ctx));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeErr("list comprehension requires a list", list);
      }
      ValueList out;
      for (const Value& item : list.AsList()) {
        OverlayEnvironment inner(env, c.var, item);
        if (c.where) {
          GQL_ASSIGN_OR_RETURN(Value wv, EvaluateExpr(*c.where, inner, ctx));
          GQL_ASSIGN_OR_RETURN(Tri wt, AsTri(wv, "comprehension WHERE"));
          if (wt != Tri::kTrue) continue;
        }
        if (c.project) {
          GQL_ASSIGN_OR_RETURN(Value pv, EvaluateExpr(*c.project, inner, ctx));
          out.push_back(std::move(pv));
        } else {
          out.push_back(item);
        }
      }
      return Value::MakeList(std::move(out));
    }
    case Expr::Kind::kQuantifier: {
      const auto& q = static_cast<const QuantifierExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value list, EvaluateExpr(*q.list, env, ctx));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeErr("quantifier requires a list", list);
      }
      // 3VL folds: all = AND over the element predicates (empty → true),
      // any = OR (empty → false), none = NOT any; single = exactly one
      // true, null when an unknown could change the verdict.
      int64_t trues = 0, falses = 0, nulls = 0;
      for (const Value& item : list.AsList()) {
        OverlayEnvironment inner(env, q.var, item);
        GQL_ASSIGN_OR_RETURN(Value wv, EvaluateExpr(*q.where, inner, ctx));
        GQL_ASSIGN_OR_RETURN(Tri wt, AsTri(wv, "quantifier WHERE"));
        if (wt == Tri::kTrue) ++trues;
        else if (wt == Tri::kFalse) ++falses;
        else ++nulls;
      }
      switch (q.quantifier) {
        case QuantifierExpr::Quantifier::kAll:
          if (falses > 0) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(true);
        case QuantifierExpr::Quantifier::kAny:
          if (trues > 0) return Value::Bool(true);
          if (nulls > 0) return Value::Null();
          return Value::Bool(false);
        case QuantifierExpr::Quantifier::kNone:
          if (trues > 0) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(true);
        case QuantifierExpr::Quantifier::kSingle:
          if (trues > 1) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(trues == 1);
      }
      return Status::Internal("unhandled quantifier");
    }
    case Expr::Kind::kReduce: {
      const auto& r = static_cast<const ReduceExpr&>(e);
      GQL_ASSIGN_OR_RETURN(Value acc, EvaluateExpr(*r.init, env, ctx));
      GQL_ASSIGN_OR_RETURN(Value list, EvaluateExpr(*r.list, env, ctx));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) return TypeErr("reduce requires a list", list);
      for (const Value& item : list.AsList()) {
        OverlayEnvironment with_acc(env, r.acc, acc);
        OverlayEnvironment inner(with_acc, r.var, item);
        GQL_ASSIGN_OR_RETURN(Value next, EvaluateExpr(*r.body, inner, ctx));
        acc = std::move(next);
      }
      return acc;
    }
    case Expr::Kind::kPatternPredicate: {
      const auto& p = static_cast<const PatternPredicateExpr&>(e);
      if (!ctx.pattern_predicate) {
        return Status::EvaluationError(
            "pattern predicates are not available in this context");
      }
      GQL_ASSIGN_OR_RETURN(bool any, ctx.pattern_predicate(p.pattern, env));
      return Value::Bool(any);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Tri> EvaluatePredicate(const Expr& e, const Environment& env,
                              const EvalContext& ctx) {
  GQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(e, env, ctx));
  if (v.is_null()) return Tri::kNull;
  if (v.is_bool()) return TriFromBool(v.AsBool());
  return PredicateTypeErr(v);
}

// ---- CompiledExpr -----------------------------------------------------------

namespace {

// The compiled form's error paths stay out of line, so its per-row frames
// hold no Result or Status temporaries.

/// AsTri's type error for a non-null, non-boolean operand of `op`.
[[gnu::noinline]] Tri OperandTypeErr(const Value& bad, const char* op,
                                     Status* err) {
  *err = AsTri(bad, op).status();
  return Tri::kNull;
}

[[gnu::noinline]] Tri LabelsTri(const Value& obj,
                                const std::vector<std::string>& labels,
                                const std::vector<SymbolId>* ids,
                                const EvalContext& ctx, Status* err) {
  Result<Tri> t = HasLabels(obj, labels, ids, ctx);
  if (t.ok()) return *t;
  *err = t.status();
  return Tri::kNull;
}

}  // namespace

CompiledExpr CompiledExpr::Compile(
    const Expr& e, const std::vector<std::string>& schema,
    const std::vector<std::string>& second_schema) {
  CompiledExpr c;
  c.schema_ = schema;
  c.first_width_ = schema.size();
  c.schema_.insert(c.schema_.end(), second_schema.begin(),
                   second_schema.end());
  c.Add(e);  // the root is added last
  c.scratch_.resize(c.nodes_.size());
  return c;
}

int CompiledExpr::Add(const Expr& e) {
  Node n;
  n.expr = &e;
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      n.op = Op::kLiteral;
      break;
    case Expr::Kind::kVariable: {
      const std::string& name = static_cast<const VariableExpr&>(e).name;
      auto it = std::find(schema_.begin(), schema_.end(), name);
      if (it == schema_.end()) break;  // unbound: the fallback's error
      size_t i = static_cast<size_t>(it - schema_.begin());
      n.op = Op::kColumn;
      n.second = i >= first_width_;
      n.column = n.second ? i - first_width_ : i;
      break;
    }
    case Expr::Kind::kParameter:
      n.op = Op::kParameter;
      break;
    case Expr::Kind::kProperty:
      n.op = Op::kProperty;
      n.lhs = Add(*static_cast<const PropertyExpr&>(e).object);
      break;
    case Expr::Kind::kLabelCheck:
      n.op = Op::kLabels;
      n.lhs = Add(*static_cast<const LabelCheckExpr&>(e).object);
      break;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      switch (b.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kXor:
          n.op = Op::kLogic;
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          n.op = Op::kCompare;
          break;
        default:
          n.op = Op::kBinary;
          break;
      }
      n.lhs = Add(*b.lhs);
      n.rhs = Add(*b.rhs);
      break;
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      n.op = u.op == UnaryOp::kNot         ? Op::kNot
             : u.op == UnaryOp::kIsNull    ? Op::kIsNull
             : u.op == UnaryOp::kIsNotNull ? Op::kIsNotNull
                                           : Op::kUnary;
      n.lhs = Add(*u.operand);
      break;
    }
    default:
      break;  // kFallback
  }
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

void CompiledExpr::Bind(const EvalContext& ctx) {
  ctx_ = &ctx;
  bound_graph_ = ctx.graph;
  bound_params_ = ctx.parameters;
  for (Node& n : nodes_) {
    switch (n.op) {
      case Op::kProperty:
        n.key = ctx.graph == nullptr
                    ? kNoSymbol
                    : ctx.graph->keys().Lookup(
                          static_cast<const PropertyExpr&>(*n.expr).key);
        break;
      case Op::kLabels: {
        const auto& labels = static_cast<const LabelCheckExpr&>(*n.expr).labels;
        n.labels.clear();
        for (const std::string& l : labels) {
          n.labels.push_back(ctx.graph == nullptr ? kNoSymbol
                                                  : ctx.graph->LookupLabel(l));
        }
        break;
      }
      case Op::kParameter: {
        Result<const Value*> v = ParameterRef(
            static_cast<const ParameterExpr&>(*n.expr).name, ctx);
        n.param = v.ok() ? *v : nullptr;  // the error is raised per use
        break;
      }
      default:
        break;
    }
  }
}

Result<const Value*> CompiledExpr::Evaluate(const ValueList& row,
                                            const ValueList* second) const {
  if (ctx_ == nullptr || nodes_.empty()) {
    return Status::Internal("compiled expression evaluated unbound or empty");
  }
  Status err;
  const Value* v =
      Ref(static_cast<int>(nodes_.size()) - 1, Rows{&row, second}, &err);
  if (v == nullptr) return err;
  return v;
}

Result<Tri> CompiledExpr::EvaluatePredicate(const ValueList& row) const {
  if (ctx_ == nullptr || nodes_.empty()) {
    return Status::Internal("compiled expression evaluated unbound or empty");
  }
  Status err;
  const Value* bad = nullptr;
  Tri t = TriOf(static_cast<int>(nodes_.size()) - 1, Rows{&row, nullptr},
                &bad, &err);
  if (!err.ok()) return err;
  if (bad != nullptr) return PredicateTypeErr(*bad);
  return t;
}

const Value* CompiledExpr::Ref(int i, const Rows& rows, Status* err) const {
  // The leaves and the property of a live node or relationship stay here;
  // everything else is in Compute, so this frame stays small.
  const Node& n = nodes_[i];
  switch (n.op) {
    case Op::kColumn: {
      const ValueList* row = n.second ? rows.second : rows.first;
      if (row != nullptr && n.column < row->size()) return &(*row)[n.column];
      break;
    }
    case Op::kParameter:
      if (n.param != nullptr && ctx_->parameters == bound_params_) {
        return n.param;
      }
      break;
    case Op::kLiteral:
      return &static_cast<const LiteralExpr&>(*n.expr).value;
    case Op::kProperty: {
      const Value* obj = Ref(n.lhs, rows, err);
      if (obj == nullptr) return nullptr;
      const PropertyGraph* g = ctx_->graph;
      if (g != nullptr && g == bound_graph_) {
        if (obj->is_node() && g->IsNodeAlive(obj->AsNode())) {
          return &g->NodePropertyById(obj->AsNode(), n.key);
        }
        if (obj->is_relationship() && g->IsRelAlive(obj->AsRelationship())) {
          return &g->RelPropertyById(obj->AsRelationship(), n.key);
        }
      }
      return Compute(i, rows, obj, err);
    }
    default:
      break;
  }
  return Compute(i, rows, nullptr, err);
}

const Value* CompiledExpr::Compute(int i, const Rows& rows, const Value* obj,
                                   Status* err) const {
  const Node& n = nodes_[i];
  Value& scratch = scratch_[i];
  // Stores a computed value (or the error) and returns where it lives.
  auto set = [&](Result<Value> r) -> const Value* {
    if (!r.ok()) {
      *err = r.status();
      return nullptr;
    }
    scratch = std::move(r).value();
    return &scratch;
  };
  // Records a reference (or the error).
  auto ref = [err](Result<const Value*> r) -> const Value* {
    if (r.ok()) return *r;
    *err = r.status();
    return nullptr;
  };
  switch (n.op) {
    case Op::kParameter:
      return ref(ParameterRef(static_cast<const ParameterExpr&>(*n.expr).name,
                              *ctx_));
    case Op::kProperty:
      return ref(PropertyRef(*obj,
                             static_cast<const PropertyExpr&>(*n.expr).key,
                             ctx_->graph == bound_graph_ ? &n.key : nullptr,
                             *ctx_, &scratch));
    case Op::kLabels:
    case Op::kCompare:
    case Op::kLogic:
    case Op::kNot:
    case Op::kIsNull:
    case Op::kIsNotNull: {
      const Value* bad = nullptr;  // never set by a predicate node
      Tri t = TriOf(i, rows, &bad, err);
      if (!err->ok()) return nullptr;
      scratch = TriToValue(t);
      return &scratch;
    }
    case Op::kBinary: {
      const Value* lv = Ref(n.lhs, rows, err);
      if (lv == nullptr) return nullptr;
      const Value* rv = Ref(n.rhs, rows, err);
      if (rv == nullptr) return nullptr;
      return set(
          ApplyBinary(static_cast<const BinaryExpr&>(*n.expr).op, *lv, *rv));
    }
    case Op::kUnary: {
      const Value* v = Ref(n.lhs, rows, err);
      if (v == nullptr) return nullptr;
      return set(ApplyUnary(static_cast<const UnaryExpr&>(*n.expr).op, *v));
    }
    case Op::kColumn:  // a row narrower than the schema: unbound
    case Op::kLiteral:
    case Op::kFallback:
      break;
  }
  SchemaRowEnvironment env(schema_, *rows.first, first_width_, rows.second);
  return set(EvaluateExpr(*n.expr, env, *ctx_));
}

Tri CompiledExpr::TriOf(int i, const Rows& rows, const Value** bad,
                        Status* err) const {
  const Node& n = nodes_[i];
  switch (n.op) {
    case Op::kCompare: {
      const Value* lv = Ref(n.lhs, rows, err);
      if (lv == nullptr) return Tri::kNull;
      const Value* rv = Ref(n.rhs, rows, err);
      if (rv == nullptr) return Tri::kNull;
      return CompareValues(static_cast<const BinaryExpr&>(*n.expr).op, *lv,
                           *rv);
    }
    case Op::kLogic: {
      BinaryOp op = static_cast<const BinaryExpr&>(*n.expr).op;
      const Value* lbad = nullptr;
      const Value* rbad = nullptr;
      Tri lt = TriOf(n.lhs, rows, &lbad, err);
      if (!err->ok()) return Tri::kNull;
      Tri rt = TriOf(n.rhs, rows, &rbad, err);
      if (!err->ok()) return Tri::kNull;
      if (lbad != nullptr) return OperandTypeErr(*lbad, BinaryOpName(op), err);
      if (rbad != nullptr) return OperandTypeErr(*rbad, BinaryOpName(op), err);
      return CombineTri(op, lt, rt);
    }
    case Op::kNot: {
      const Value* obad = nullptr;
      Tri t = TriOf(n.lhs, rows, &obad, err);
      if (!err->ok()) return Tri::kNull;
      if (obad != nullptr) return OperandTypeErr(*obad, "NOT", err);
      return TriNot(t);
    }
    case Op::kIsNull:
    case Op::kIsNotNull: {
      const Value* v = Ref(n.lhs, rows, err);
      if (v == nullptr) return Tri::kNull;
      return TriFromBool(v->is_null() == (n.op == Op::kIsNull));
    }
    case Op::kLabels: {
      const Value* obj = Ref(n.lhs, rows, err);
      if (obj == nullptr) return Tri::kNull;
      return LabelsTri(*obj, static_cast<const LabelCheckExpr&>(*n.expr).labels,
                       ctx_->graph == bound_graph_ ? &n.labels : nullptr,
                       *ctx_, err);
    }
    default: {
      const Value* v = Ref(i, rows, err);
      if (v == nullptr) return Tri::kNull;
      if (v->is_null()) return Tri::kNull;
      if (v->is_bool()) return TriFromBool(v->AsBool());
      *bad = v;
      return Tri::kNull;
    }
  }
}

}  // namespace gqlite
