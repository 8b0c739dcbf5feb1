#include "src/eval/functions.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>

#include "src/common/string_util.h"
#include "src/eval/evaluator.h"
#include "src/temporal/temporal_parse.h"
#include "src/value/value_format.h"

namespace gqlite {

namespace {

using Args = std::vector<Value>;

Status Arity(const std::string& name, const Args& args, size_t lo, size_t hi) {
  if (args.size() < lo || args.size() > hi) {
    return Status::EvaluationError(
        "wrong number of arguments to " + name + "() (got " +
        std::to_string(args.size()) + ")");
  }
  return Status::OK();
}

Status WrongType(const std::string& fn, const Value& v) {
  return Status::TypeError(fn + "() cannot operate on " +
                           ValueTypeName(v.type()));
}

Result<Value> FnId(const Args& a, const EvalContext& ctx) {
  (void)ctx;
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_node()) return Value::Int(static_cast<int64_t>(v.AsNode().id));
  if (v.is_relationship()) {
    return Value::Int(static_cast<int64_t>(v.AsRelationship().id));
  }
  return WrongType("id", v);
}

Result<Value> FnLabels(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_node()) return WrongType("labels", v);
  if (ctx.graph == nullptr || !ctx.graph->IsNodeAlive(v.AsNode())) {
    return Status::EvaluationError("labels() on a deleted node");
  }
  ValueList out;
  for (const std::string& l : ctx.graph->NodeLabels(v.AsNode())) {
    out.push_back(Value::String(l));
  }
  return Value::MakeList(std::move(out));
}

Result<Value> FnType(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_relationship()) return WrongType("type", v);
  if (ctx.graph == nullptr || !ctx.graph->IsRelAlive(v.AsRelationship())) {
    return Status::EvaluationError("type() on a deleted relationship");
  }
  return Value::String(ctx.graph->RelType(v.AsRelationship()));
}

Result<Value> FnProperties(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_map()) return v;
  if (v.is_node()) {
    return Value::MakeMap(ctx.graph->NodeProperties(v.AsNode()));
  }
  if (v.is_relationship()) {
    return Value::MakeMap(ctx.graph->RelProperties(v.AsRelationship()));
  }
  return WrongType("properties", v);
}

Result<Value> FnKeys(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  ValueList out;
  if (v.is_map()) {
    for (const auto& [k, val] : v.AsMap()) out.push_back(Value::String(k));
  } else if (v.is_node()) {
    for (auto& k : ctx.graph->NodePropertyKeys(v.AsNode())) {
      out.push_back(Value::String(k));
    }
  } else if (v.is_relationship()) {
    for (auto& k : ctx.graph->RelPropertyKeys(v.AsRelationship())) {
      out.push_back(Value::String(k));
    }
  } else {
    return WrongType("keys", v);
  }
  return Value::MakeList(std::move(out));
}

Result<Value> FnStartNode(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_relationship()) return WrongType("startNode", v);
  return Value::Node(ctx.graph->Source(v.AsRelationship()));
}

Result<Value> FnEndNode(const Args& a, const EvalContext& ctx) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_relationship()) return WrongType("endNode", v);
  return Value::Node(ctx.graph->Target(v.AsRelationship()));
}

Result<Value> FnDegree(const Args& a, const EvalContext& ctx, int mode) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_node()) return WrongType("degree", v);
  NodeId n = v.AsNode();
  size_t d = mode == 0   ? ctx.graph->Degree(n)
             : mode == 1 ? ctx.graph->OutRels(n).size()
                         : ctx.graph->InRels(n).size();
  return Value::Int(static_cast<int64_t>(d));
}

Result<Value> FnLength(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  // length(path) is the number of relationships (§4.1 path model); we also
  // accept lists and strings for convenience, like Neo4j ≤3.x.
  if (v.is_path()) {
    return Value::Int(static_cast<int64_t>(v.AsPath().length()));
  }
  if (v.is_list()) return Value::Int(static_cast<int64_t>(v.AsList().size()));
  if (v.is_string()) {
    return Value::Int(static_cast<int64_t>(Utf8Length(v.AsString())));
  }
  return WrongType("length", v);
}

Result<Value> FnSize(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_list()) return Value::Int(static_cast<int64_t>(v.AsList().size()));
  if (v.is_string()) {
    // size(string) counts characters (code points), not bytes.
    return Value::Int(static_cast<int64_t>(Utf8Length(v.AsString())));
  }
  if (v.is_map()) return Value::Int(static_cast<int64_t>(v.AsMap().size()));
  return WrongType("size", v);
}

Result<Value> FnNodes(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_path()) return WrongType("nodes", v);
  ValueList out;
  for (NodeId n : v.AsPath().nodes) out.push_back(Value::Node(n));
  return Value::MakeList(std::move(out));
}

Result<Value> FnRelationships(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_path()) return WrongType("relationships", v);
  ValueList out;
  for (RelId r : v.AsPath().rels) out.push_back(Value::Relationship(r));
  return Value::MakeList(std::move(out));
}

Result<Value> FnHead(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_list()) return WrongType("head", v);
  if (v.AsList().empty()) return Value::Null();
  return v.AsList().front();
}

Result<Value> FnLast(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_list()) return WrongType("last", v);
  if (v.AsList().empty()) return Value::Null();
  return v.AsList().back();
}

Result<Value> FnTail(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_list()) return WrongType("tail", v);
  ValueList out;
  for (size_t i = 1; i < v.AsList().size(); ++i) out.push_back(v.AsList()[i]);
  return Value::MakeList(std::move(out));
}

Result<Value> FnReverse(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_list()) {
    ValueList out(v.AsList().rbegin(), v.AsList().rend());
    return Value::MakeList(std::move(out));
  }
  if (v.is_string()) {
    // Reverse by code point so multi-byte characters survive intact.
    return Value::String(Utf8Reverse(v.AsString()));
  }
  return WrongType("reverse", v);
}

Result<Value> FnRange(const Args& a, const EvalContext&) {
  for (const Value& v : a) {
    if (v.is_null()) return Value::Null();
    if (!v.is_int()) return WrongType("range", v);
  }
  int64_t start = a[0].AsInt();
  int64_t end = a[1].AsInt();
  int64_t step = a.size() > 2 ? a[2].AsInt() : 1;
  if (step == 0) return Status::EvaluationError("range() step must not be 0");
  ValueList out;
  if (step > 0) {
    for (int64_t i = start; i <= end;) {
      out.push_back(Value::Int(i));
      if (__builtin_add_overflow(i, step, &i)) break;  // ran off INT64_MAX
    }
  } else {
    for (int64_t i = start; i >= end;) {
      out.push_back(Value::Int(i));
      if (__builtin_add_overflow(i, step, &i)) break;  // ran off INT64_MIN
    }
  }
  return Value::MakeList(std::move(out));
}

Result<Value> FnCoalesce(const Args& a, const EvalContext&) {
  for (const Value& v : a) {
    if (!v.is_null()) return v;
  }
  return Value::Null();
}

Result<Value> FnToString(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_string()) return v;
  if (v.is_int()) return Value::String(std::to_string(v.AsInt()));
  if (v.is_float()) return Value::String(FormatFloat(v.AsFloat()));
  if (v.is_bool()) return Value::String(v.AsBool() ? "true" : "false");
  if (v.is_temporal()) return Value::String(v.ToString());
  return WrongType("toString", v);
}

/// Range-checked double → int64 truncation; the raw static_cast is UB when
/// the value does not fit. 2^63 is exactly representable as a double, so
/// `d >= 2^63` and `d < -2^63` bracket exactly the non-representable range.
bool DoubleFitsInt64(double d) {
  return !std::isnan(d) && d >= -9223372036854775808.0 &&
         d < 9223372036854775808.0;
}

/// True when `s` has the shape of a decimal number literal
/// [+-]?(digits[.digits] | .digits)([eE][+-]?digits)?. Needed because
/// strtod/stod also accept hex ("0x1A") and case-insensitive "inf"/"nan",
/// which Neo4j treats as unconvertible (null). The exact-case forms
/// "Infinity"/"NaN" that Java's parseDouble accepts are special-cased in
/// toFloat, not here.
bool IsDecimalNumberString(std::string_view s) {
  size_t i = 0;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  size_t digits = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    ++i;
    ++digits;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    size_t exp_digits = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      ++exp_digits;
    }
    if (exp_digits == 0) return false;
  }
  return i == s.size();
}

Result<Value> FnToInteger(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_int()) return v;
  if (v.is_float()) {
    if (!DoubleFitsInt64(v.AsFloat())) {
      return Status::EvaluationError("integer overflow: toInteger(" +
                                     FormatFloat(v.AsFloat()) + ")");
    }
    return Value::Int(static_cast<int64_t>(v.AsFloat()));
  }
  if (v.is_string()) {
    // Neo4j trims surrounding whitespace before converting.
    std::string s(TrimView(v.AsString()));
    if (!IsDecimalNumberString(s)) return Value::Null();
    // Pure integer strings convert at full 64-bit precision; anything else
    // (e.g. "42.9", "6e2") goes through double and truncates.
    errno = 0;
    char* end = nullptr;
    long long ll = std::strtoll(s.c_str(), &end, 10);
    if (errno == 0 && end == s.c_str() + s.size()) {
      return Value::Int(static_cast<int64_t>(ll));
    }
    try {
      size_t pos = 0;
      double d = std::stod(s, &pos);
      if (pos != s.size()) return Value::Null();
      if (!DoubleFitsInt64(d)) return Value::Null();
      return Value::Int(static_cast<int64_t>(d));
    } catch (...) {
      return Value::Null();
    }
  }
  return WrongType("toInteger", v);
}

Result<Value> FnToFloat(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_float()) return v;
  if (v.is_int()) return Value::Float(static_cast<double>(v.AsInt()));
  if (v.is_string()) {
    std::string s(TrimView(v.AsString()));
    // Neo4j follows Java's Double.parseDouble: the exact-case words
    // "Infinity" and "NaN" convert; lowercase "inf"/"nan" do not.
    if (s == "Infinity" || s == "+Infinity") {
      return Value::Float(std::numeric_limits<double>::infinity());
    }
    if (s == "-Infinity") {
      return Value::Float(-std::numeric_limits<double>::infinity());
    }
    if (s == "NaN") {
      return Value::Float(std::numeric_limits<double>::quiet_NaN());
    }
    if (!IsDecimalNumberString(s)) return Value::Null();
    try {
      size_t pos = 0;
      double d = std::stod(s, &pos);
      if (pos != s.size()) return Value::Null();
      return Value::Float(d);
    } catch (...) {
      return Value::Null();
    }
  }
  return WrongType("toFloat", v);
}

Result<Value> FnToBoolean(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_bool()) return v;
  if (v.is_string()) {
    if (AsciiEqualsIgnoreCase(v.AsString(), "true")) return Value::Bool(true);
    if (AsciiEqualsIgnoreCase(v.AsString(), "false")) {
      return Value::Bool(false);
    }
    return Value::Null();
  }
  return WrongType("toBoolean", v);
}

Result<Value> Math1(const std::string& name, const Args& a,
                    double (*fn)(double), bool keep_int = false) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_number()) return WrongType(name, v);
  if (keep_int && v.is_int()) return v;
  return Value::Float(fn(v.AsNumber()));
}

Result<Value> FnAbs(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (v.is_int()) {
    if (v.AsInt() == INT64_MIN) {
      return Status::EvaluationError("integer overflow: abs(" +
                                     std::to_string(v.AsInt()) + ")");
    }
    return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
  }
  if (v.is_float()) return Value::Float(std::fabs(v.AsFloat()));
  return WrongType("abs", v);
}

Result<Value> FnSign(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_number()) return WrongType("sign", v);
  double d = v.AsNumber();
  return Value::Int(d > 0 ? 1 : (d < 0 ? -1 : 0));
}

Result<Value> FnRound(const Args& a, const EvalContext&) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_number()) return WrongType("round", v);
  return Value::Float(std::round(v.AsNumber()));
}

Result<Value> FnAtan2(const Args& a, const EvalContext&) {
  if (a[0].is_null() || a[1].is_null()) return Value::Null();
  if (!a[0].is_number() || !a[1].is_number()) {
    return Status::TypeError("atan2() requires numbers");
  }
  return Value::Float(std::atan2(a[0].AsNumber(), a[1].AsNumber()));
}

Result<Value> FnRand(const Args&, const EvalContext& ctx) {
  if (ctx.rand_state == nullptr) {
    return Status::EvaluationError("rand() is not seeded in this context");
  }
  // xorshift64*; deterministic per engine seed so tests are reproducible.
  uint64_t x = *ctx.rand_state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *ctx.rand_state = x;
  uint64_t r = x * 0x2545F4914F6CDD1DULL;
  return Value::Float(static_cast<double>(r >> 11) /
                      static_cast<double>(1ULL << 53));
}

Result<Value> Str1(const std::string& name, const Args& a,
                   std::string (*fn)(std::string_view)) {
  const Value& v = a[0];
  if (v.is_null()) return Value::Null();
  if (!v.is_string()) return WrongType(name, v);
  return Value::String(fn(v.AsString()));
}

Result<Value> FnReplace(const Args& a, const EvalContext&) {
  for (const Value& v : a) {
    if (v.is_null()) return Value::Null();
    if (!v.is_string()) return WrongType("replace", v);
  }
  std::string_view s = a[0].AsString();
  std::string_view find = a[1].AsString();
  std::string_view repl = a[2].AsString();
  if (find.empty()) return a[0];
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(find, start);
    if (pos == std::string::npos) {
      out += s.substr(start);
      break;
    }
    out += s.substr(start, pos - start);
    out += repl;
    start = pos + find.size();
  }
  return Value::String(std::move(out));
}

Result<Value> FnSplit(const Args& a, const EvalContext&) {
  if (a[0].is_null() || a[1].is_null()) return Value::Null();
  if (!a[0].is_string() || !a[1].is_string()) {
    return Status::TypeError("split() requires strings");
  }
  ValueList out;
  for (auto& part : SplitBy(a[0].AsString(), a[1].AsString())) {
    out.push_back(Value::String(std::move(part)));
  }
  return Value::MakeList(std::move(out));
}

Result<Value> FnSubstring(const Args& a, const EvalContext&) {
  if (a[0].is_null()) return Value::Null();
  if (!a[0].is_string() || !a[1].is_int() ||
      (a.size() > 2 && !a[2].is_int())) {
    return Status::TypeError("substring(string, start[, length])");
  }
  std::string_view s = a[0].AsString();
  int64_t chars = static_cast<int64_t>(Utf8Length(s));
  int64_t start = a[1].AsInt();
  if (start < 0) return Status::EvaluationError("substring start < 0");
  if (start >= chars) return Value::String("");
  int64_t len = a.size() > 2 ? a[2].AsInt() : chars - start;
  if (len < 0) return Status::EvaluationError("substring length < 0");
  return Value::String(Utf8Substr(s, static_cast<size_t>(start),
                                  static_cast<size_t>(len)));
}

Result<Value> FnLeftRight(const Args& a, const EvalContext&, bool left) {
  if (a[0].is_null()) return Value::Null();
  if (!a[0].is_string() || !a[1].is_int()) {
    return Status::TypeError("left/right(string, n)");
  }
  std::string_view s = a[0].AsString();
  int64_t n = a[1].AsInt();
  if (n < 0) return Status::EvaluationError("left/right length < 0");
  size_t chars = Utf8Length(s);
  size_t take = std::min<size_t>(static_cast<size_t>(n), chars);
  return Value::String(left ? Utf8Substr(s, 0, take)
                            : Utf8Substr(s, chars - take, take));
}

template <typename T>
Result<Value> ParseTemporal(const std::string& name, const Args& a,
                            Result<T> (*parse)(std::string_view)) {
  if (a[0].is_null()) return Value::Null();
  if (!a[0].is_string()) return WrongType(name, a[0]);
  GQL_ASSIGN_OR_RETURN(T t, parse(a[0].AsString()));
  return Value::Temporal(t);
}

Result<Value> FnDurationBetween(const Args& a, const EvalContext&) {
  if (a[0].is_null() || a[1].is_null()) return Value::Null();
  if (a[0].type() != a[1].type()) {
    return Status::TypeError(
        "durationBetween() requires two temporal values of the same type");
  }
  switch (a[0].type()) {
    case ValueType::kDate:
      return Value::Temporal(DurationBetween(a[0].AsDate(), a[1].AsDate()));
    case ValueType::kLocalDateTime:
      return Value::Temporal(
          DurationBetween(a[0].AsLocalDateTime(), a[1].AsLocalDateTime()));
    case ValueType::kDateTime:
      return Value::Temporal(
          DurationBetween(a[0].AsDateTime(), a[1].AsDateTime()));
    default:
      return WrongType("durationBetween", a[0]);
  }
}

}  // namespace

Result<Value> CallFunction(const std::string& name, const Args& args,
                           const EvalContext& ctx) {
  // Entities.
  if (name == "id") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnId(args, ctx);
  }
  if (name == "labels") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnLabels(args, ctx);
  }
  if (name == "type") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnType(args, ctx);
  }
  if (name == "properties") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnProperties(args, ctx);
  }
  if (name == "keys") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnKeys(args, ctx);
  }
  if (name == "startnode") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnStartNode(args, ctx);
  }
  if (name == "endnode") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnEndNode(args, ctx);
  }
  if (name == "degree") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnDegree(args, ctx, 0);
  }
  if (name == "outdegree") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnDegree(args, ctx, 1);
  }
  if (name == "indegree") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnDegree(args, ctx, 2);
  }
  // Paths & lists.
  if (name == "length") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnLength(args, ctx);
  }
  if (name == "size") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnSize(args, ctx);
  }
  if (name == "nodes") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnNodes(args, ctx);
  }
  if (name == "relationships" || name == "rels") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnRelationships(args, ctx);
  }
  if (name == "head") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnHead(args, ctx);
  }
  if (name == "last") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnLast(args, ctx);
  }
  if (name == "tail") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnTail(args, ctx);
  }
  if (name == "reverse") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnReverse(args, ctx);
  }
  if (name == "range") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 3));
    return FnRange(args, ctx);
  }
  // Scalars.
  if (name == "coalesce") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 64));
    return FnCoalesce(args, ctx);
  }
  if (name == "tostring") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnToString(args, ctx);
  }
  if (name == "tointeger" || name == "toint") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnToInteger(args, ctx);
  }
  if (name == "tofloat") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnToFloat(args, ctx);
  }
  if (name == "toboolean") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnToBoolean(args, ctx);
  }
  // Math.
  if (name == "abs") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnAbs(args, ctx);
  }
  if (name == "sign") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnSign(args, ctx);
  }
  if (name == "ceil") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::ceil);
  }
  if (name == "floor") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::floor);
  }
  if (name == "round") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return FnRound(args, ctx);
  }
  if (name == "sqrt") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::sqrt);
  }
  if (name == "exp") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::exp);
  }
  if (name == "log") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::log);
  }
  if (name == "log10") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::log10);
  }
  if (name == "sin") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::sin);
  }
  if (name == "cos") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::cos);
  }
  if (name == "tan") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::tan);
  }
  if (name == "asin") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::asin);
  }
  if (name == "acos") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::acos);
  }
  if (name == "atan") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Math1(name, args, std::atan);
  }
  if (name == "atan2") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return FnAtan2(args, ctx);
  }
  if (name == "pi") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return Value::Float(M_PI);
  }
  if (name == "e") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return Value::Float(M_E);
  }
  if (name == "rand") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return FnRand(args, ctx);
  }
  // Strings.
  if (name == "toupper" || name == "upper") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Str1(name, args, Utf8ToUpper);
  }
  if (name == "tolower" || name == "lower") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Str1(name, args, Utf8ToLower);
  }
  if (name == "trim") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Str1(name, args,
                [](std::string_view s) { return std::string(TrimView(s)); });
  }
  if (name == "ltrim") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Str1(name, args,
                [](std::string_view s) { return std::string(LTrimView(s)); });
  }
  if (name == "rtrim") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Str1(name, args,
                [](std::string_view s) { return std::string(RTrimView(s)); });
  }
  if (name == "replace") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 3, 3));
    return FnReplace(args, ctx);
  }
  if (name == "split") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return FnSplit(args, ctx);
  }
  if (name == "substring") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 3));
    return FnSubstring(args, ctx);
  }
  if (name == "left") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return FnLeftRight(args, ctx, true);
  }
  if (name == "right") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return FnLeftRight(args, ctx, false);
  }
  // Temporal constructors (Cypher 10).
  if (name == "date") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<Date>(name, args, ParseDate);
  }
  if (name == "localtime") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<LocalTime>(name, args, ParseLocalTime);
  }
  if (name == "time") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<ZonedTime>(name, args, ParseZonedTime);
  }
  if (name == "localdatetime") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<LocalDateTime>(name, args, ParseLocalDateTime);
  }
  if (name == "datetime") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<ZonedDateTime>(name, args, ParseZonedDateTime);
  }
  if (name == "duration") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return ParseTemporal<Duration>(name, args, ParseDuration);
  }
  if (name == "durationbetween") {
    GQL_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return FnDurationBetween(args, ctx);
  }
  return Status::EvaluationError("unknown function: " + name + "()");
}

}  // namespace gqlite
