#include "src/value/value_compare.h"

#include <cmath>
#include <cstring>
#include <functional>

namespace gqlite {

Tri TriAnd(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kNull || b == Tri::kNull) return Tri::kNull;
  return Tri::kTrue;
}

Tri TriOr(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kNull || b == Tri::kNull) return Tri::kNull;
  return Tri::kFalse;
}

Tri TriXor(Tri a, Tri b) {
  if (a == Tri::kNull || b == Tri::kNull) return Tri::kNull;
  return TriFromBool((a == Tri::kTrue) != (b == Tri::kTrue));
}

Tri TriNot(Tri a) {
  if (a == Tri::kNull) return Tri::kNull;
  return a == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

namespace {

/// Exact three-way comparison of an int64 against a non-NaN double.
/// Casting the int to double (what AsNumber() does) rounds above 2^53 and
/// made e.g. 9007199254740993 = 9007199254740992.0 come out true; Cypher
/// compares the mathematical values. The caller screens out NaN.
int CompareIntFloat(int64_t i, double d) {
  // 2^63 is exactly representable as a double, so these two tests bracket
  // exactly the doubles outside int64's range (±inf included).
  if (d >= 9223372036854775808.0) return -1;
  if (d < -9223372036854775808.0) return 1;
  int64_t t = static_cast<int64_t>(d);  // truncation; in range by the above
  if (i != t) return i < t ? -1 : 1;
  // Equal integral parts: the fraction decides. Exact, because any double
  // with a nonzero fraction has |d| < 2^53 where (double)t is lossless,
  // and above that every double is integral (frac == 0).
  double frac = d - static_cast<double>(t);
  if (frac > 0) return -1;  // d just above i
  if (frac < 0) return 1;   // d just below i (negative values)
  return 0;
}

/// Compares two numbers (int/float mix) exactly like Cypher: mathematical
/// value comparison; NaN is unequal to and not less than anything.
Tri NumberEquals(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return TriFromBool(a.AsInt() == b.AsInt());
  double x = a.AsNumber();
  double y = b.AsNumber();
  if (std::isnan(x) || std::isnan(y)) return Tri::kFalse;
  if (a.is_int()) return TriFromBool(CompareIntFloat(a.AsInt(), y) == 0);
  if (b.is_int()) return TriFromBool(CompareIntFloat(b.AsInt(), x) == 0);
  return TriFromBool(x == y);
}

Tri NumberLess(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return TriFromBool(a.AsInt() < b.AsInt());
  double x = a.AsNumber();
  double y = b.AsNumber();
  if (std::isnan(x) || std::isnan(y)) return Tri::kNull;
  if (a.is_int()) return TriFromBool(CompareIntFloat(a.AsInt(), y) < 0);
  if (b.is_int()) return TriFromBool(CompareIntFloat(b.AsInt(), x) > 0);
  return TriFromBool(x < y);
}

}  // namespace

Tri ValueEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Tri::kNull;
  if (a.is_number() && b.is_number()) return NumberEquals(a, b);
  if (a.type() != b.type()) {
    // Temporal values only equal values of their exact temporal type.
    return Tri::kFalse;
  }
  switch (a.type()) {
    case ValueType::kBool:
      return TriFromBool(a.AsBool() == b.AsBool());
    case ValueType::kString:
      return TriFromBool(a.AsString() == b.AsString());
    case ValueType::kNode:
      return TriFromBool(a.AsNode() == b.AsNode());
    case ValueType::kRelationship:
      return TriFromBool(a.AsRelationship() == b.AsRelationship());
    case ValueType::kPath:
      return TriFromBool(a.AsPath() == b.AsPath());
    case ValueType::kDate:
      return TriFromBool(a.AsDate() == b.AsDate());
    case ValueType::kLocalTime:
      return TriFromBool(a.AsLocalTime() == b.AsLocalTime());
    case ValueType::kTime:
      return TriFromBool(a.AsTime().NormalizedNanos() ==
                         b.AsTime().NormalizedNanos());
    case ValueType::kLocalDateTime:
      return TriFromBool(a.AsLocalDateTime() == b.AsLocalDateTime());
    case ValueType::kDateTime:
      return TriFromBool(a.AsDateTime().InstantNanos() ==
                         b.AsDateTime().InstantNanos());
    case ValueType::kDuration:
      return TriFromBool(a.AsDuration() == b.AsDuration());
    case ValueType::kList: {
      const ValueList& la = a.AsList();
      const ValueList& lb = b.AsList();
      if (la.size() != lb.size()) return Tri::kFalse;
      Tri acc = Tri::kTrue;
      for (size_t i = 0; i < la.size(); ++i) {
        Tri e = ValueEquals(la[i], lb[i]);
        if (e == Tri::kFalse) return Tri::kFalse;
        acc = TriAnd(acc, e);
      }
      return acc;
    }
    case ValueType::kMap: {
      const ValueMap& ma = a.AsMap();
      const ValueMap& mb = b.AsMap();
      if (ma.size() != mb.size()) return Tri::kFalse;
      Tri acc = Tri::kTrue;
      auto ia = ma.begin();
      auto ib = mb.begin();
      for (; ia != ma.end(); ++ia, ++ib) {
        if (ia->first != ib->first) return Tri::kFalse;
        Tri e = ValueEquals(ia->second, ib->second);
        if (e == Tri::kFalse) return Tri::kFalse;
        acc = TriAnd(acc, e);
      }
      return acc;
    }
    default:
      return Tri::kFalse;
  }
}

Tri ValueLess(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Tri::kNull;
  if (a.is_number() && b.is_number()) return NumberLess(a, b);
  if (a.is_string() && b.is_string()) {
    return TriFromBool(a.AsString() < b.AsString());
  }
  if (a.is_bool() && b.is_bool()) {
    return TriFromBool(!a.AsBool() && b.AsBool());
  }
  if (a.is_list() && b.is_list()) {
    // Lexicographic with 3VL element comparison; an incomparable element
    // pair makes the whole comparison null.
    const ValueList& la = a.AsList();
    const ValueList& lb = b.AsList();
    size_t n = la.size() < lb.size() ? la.size() : lb.size();
    for (size_t i = 0; i < n; ++i) {
      Tri eq = ValueEquals(la[i], lb[i]);
      if (eq == Tri::kNull) return Tri::kNull;
      if (eq == Tri::kFalse) return ValueLess(la[i], lb[i]);
    }
    return TriFromBool(la.size() < lb.size());
  }
  if (a.type() != b.type()) return Tri::kNull;
  switch (a.type()) {
    case ValueType::kDate:
      return TriFromBool(a.AsDate() < b.AsDate());
    case ValueType::kLocalTime:
      return TriFromBool(a.AsLocalTime() < b.AsLocalTime());
    case ValueType::kTime:
      return TriFromBool(a.AsTime().NormalizedNanos() <
                         b.AsTime().NormalizedNanos());
    case ValueType::kLocalDateTime:
      return TriFromBool(a.AsLocalDateTime() < b.AsLocalDateTime());
    case ValueType::kDateTime:
      return TriFromBool(a.AsDateTime().InstantNanos() <
                         b.AsDateTime().InstantNanos());
    case ValueType::kDuration:
      // Durations are not comparable with `<` in openCypher; yield null.
      return Tri::kNull;
    default:
      return Tri::kNull;
  }
}

bool ValueEquivalent(const Value& a, const Value& b) {
  // Values sharing one heap payload are identical by construction — the
  // common case after the pipeline copies a row without rewriting it.
  const void* shared = a.shared_rep();
  if (shared != nullptr && shared == b.shared_rep()) return true;
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_number() && b.is_number()) {
    if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
    double x = a.AsNumber();
    double y = b.AsNumber();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    if (a.is_int()) return CompareIntFloat(a.AsInt(), y) == 0;
    if (b.is_int()) return CompareIntFloat(b.AsInt(), x) == 0;
    return x == y;
  }
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kList: {
      const ValueList& la = a.AsList();
      const ValueList& lb = b.AsList();
      if (la.size() != lb.size()) return false;
      for (size_t i = 0; i < la.size(); ++i) {
        if (!ValueEquivalent(la[i], lb[i])) return false;
      }
      return true;
    }
    case ValueType::kMap: {
      const ValueMap& ma = a.AsMap();
      const ValueMap& mb = b.AsMap();
      if (ma.size() != mb.size()) return false;
      auto ia = ma.begin();
      auto ib = mb.begin();
      for (; ia != ma.end(); ++ia, ++ib) {
        if (ia->first != ib->first) return false;
        if (!ValueEquivalent(ia->second, ib->second)) return false;
      }
      return true;
    }
    default:
      return ValueEquals(a, b) == Tri::kTrue;
  }
}

namespace {

/// Rank of a type in the global orderability order (ascending).
int OrderabilityRank(const Value& v) {
  switch (v.type()) {
    case ValueType::kMap:
      return 0;
    case ValueType::kNode:
      return 1;
    case ValueType::kRelationship:
      return 2;
    case ValueType::kList:
      return 3;
    case ValueType::kPath:
      return 4;
    case ValueType::kDateTime:
      return 5;
    case ValueType::kLocalDateTime:
      return 6;
    case ValueType::kDate:
      return 7;
    case ValueType::kTime:
      return 8;
    case ValueType::kLocalTime:
      return 9;
    case ValueType::kDuration:
      return 10;
    case ValueType::kString:
      return 11;
    case ValueType::kBool:
      return 12;
    case ValueType::kInt:
    case ValueType::kFloat:
      return 13;
    case ValueType::kNull:
      return 14;
  }
  return 15;
}

template <typename T>
int Cmp3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

int NumberOrder(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return Cmp3(a.AsInt(), b.AsInt());
  double x = a.AsNumber();
  double y = b.AsNumber();
  bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) {
    // NaN sorts after +infinity; NaN == NaN for ordering purposes.
    if (nx && ny) return 0;
    return nx ? 1 : -1;
  }
  if (a.is_int()) {
    int c = CompareIntFloat(a.AsInt(), y);
    if (c != 0) return c;
  } else if (b.is_int()) {
    int c = CompareIntFloat(b.AsInt(), x);
    if (c != 0) return -c;
  } else if (x != y) {
    return x < y ? -1 : 1;
  }
  // Equal numeric value: int sorts before float for a deterministic order.
  return Cmp3(static_cast<int>(a.type()), static_cast<int>(b.type()));
}

}  // namespace

int ValueOrder(const Value& a, const Value& b) {
  int ra = OrderabilityRank(a);
  int rb = OrderabilityRank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  const void* shared = a.shared_rep();
  if (shared != nullptr && shared == b.shared_rep()) return 0;
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return Cmp3(a.AsBool(), b.AsBool());
    case ValueType::kInt:
    case ValueType::kFloat:
      return NumberOrder(a, b);
    case ValueType::kString:
      return Cmp3(a.AsString(), b.AsString());
    case ValueType::kNode:
      return Cmp3(a.AsNode().id, b.AsNode().id);
    case ValueType::kRelationship:
      return Cmp3(a.AsRelationship().id, b.AsRelationship().id);
    case ValueType::kDate:
      return Cmp3(a.AsDate().days_since_epoch, b.AsDate().days_since_epoch);
    case ValueType::kLocalTime:
      return Cmp3(a.AsLocalTime().nanos_since_midnight,
                  b.AsLocalTime().nanos_since_midnight);
    case ValueType::kTime:
      return Cmp3(a.AsTime().NormalizedNanos(), b.AsTime().NormalizedNanos());
    case ValueType::kLocalDateTime: {
      int c = Cmp3(a.AsLocalDateTime().EpochSeconds(),
                   b.AsLocalDateTime().EpochSeconds());
      if (c != 0) return c;
      return Cmp3(a.AsLocalDateTime().time.nanosecond(),
                  b.AsLocalDateTime().time.nanosecond());
    }
    case ValueType::kDateTime:
      return Cmp3(a.AsDateTime().InstantNanos(), b.AsDateTime().InstantNanos());
    case ValueType::kDuration:
      return Cmp3(a.AsDuration().ComparableNanos(),
                  b.AsDuration().ComparableNanos());
    case ValueType::kList: {
      const ValueList& la = a.AsList();
      const ValueList& lb = b.AsList();
      size_t n = la.size() < lb.size() ? la.size() : lb.size();
      for (size_t i = 0; i < n; ++i) {
        int c = ValueOrder(la[i], lb[i]);
        if (c != 0) return c;
      }
      return Cmp3(la.size(), lb.size());
    }
    case ValueType::kMap: {
      const ValueMap& ma = a.AsMap();
      const ValueMap& mb = b.AsMap();
      auto ia = ma.begin();
      auto ib = mb.begin();
      for (; ia != ma.end() && ib != mb.end(); ++ia, ++ib) {
        int c = Cmp3(ia->first, ib->first);
        if (c != 0) return c;
        c = ValueOrder(ia->second, ib->second);
        if (c != 0) return c;
      }
      return Cmp3(ma.size(), mb.size());
    }
    case ValueType::kPath: {
      const Path& pa = a.AsPath();
      const Path& pb = b.AsPath();
      int c = Cmp3(pa.nodes.size(), pb.nodes.size());
      if (c != 0) return c;
      for (size_t i = 0; i < pa.nodes.size(); ++i) {
        c = Cmp3(pa.nodes[i].id, pb.nodes[i].id);
        if (c != 0) return c;
      }
      for (size_t i = 0; i < pa.rels.size(); ++i) {
        c = Cmp3(pa.rels[i].id, pb.rels[i].id);
        if (c != 0) return c;
      }
      return 0;
    }
  }
  return 0;
}

namespace {

inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t ValueHash(const Value& v) {
  size_t seed = static_cast<size_t>(OrderabilityRank(v)) * 1000003u;
  switch (v.type()) {
    case ValueType::kNull:
      return seed;
    case ValueType::kBool:
      return HashCombine(seed, v.AsBool() ? 2u : 1u);
    case ValueType::kInt:
      return HashCombine(seed, std::hash<double>{}(
                                   static_cast<double>(v.AsInt())));
    case ValueType::kFloat: {
      double d = v.AsFloat();
      if (std::isnan(d)) return HashCombine(seed, 0xDEADu);
      // Hash int-valued floats like ints so 1 and 1.0 collide (they are
      // equivalent).
      return HashCombine(seed, std::hash<double>{}(d));
    }
    case ValueType::kString:
      return HashCombine(seed, std::hash<std::string_view>{}(v.AsString()));
    case ValueType::kNode:
      return HashCombine(seed, v.AsNode().id);
    case ValueType::kRelationship:
      return HashCombine(seed, v.AsRelationship().id);
    case ValueType::kDate:
      return HashCombine(seed, v.AsDate().days_since_epoch);
    case ValueType::kLocalTime:
      return HashCombine(seed, v.AsLocalTime().nanos_since_midnight);
    case ValueType::kTime:
      return HashCombine(seed, v.AsTime().NormalizedNanos());
    case ValueType::kLocalDateTime:
      return HashCombine(seed, v.AsLocalDateTime().EpochSeconds());
    case ValueType::kDateTime:
      return HashCombine(seed, v.AsDateTime().InstantNanos());
    case ValueType::kDuration: {
      const Duration& d = v.AsDuration();
      size_t h = HashCombine(seed, d.months);
      h = HashCombine(h, d.days);
      h = HashCombine(h, d.seconds);
      return HashCombine(h, d.nanos);
    }
    case ValueType::kList: {
      size_t h = HashCombine(seed, v.AsList().size());
      for (const Value& e : v.AsList()) h = HashCombine(h, ValueHash(e));
      return h;
    }
    case ValueType::kMap: {
      size_t h = HashCombine(seed, v.AsMap().size());
      for (const auto& [k, val] : v.AsMap()) {
        h = HashCombine(h, std::hash<std::string_view>{}(std::string_view(k)));
        h = HashCombine(h, ValueHash(val));
      }
      return h;
    }
    case ValueType::kPath: {
      const Path& p = v.AsPath();
      size_t h = HashCombine(seed, p.nodes.size());
      for (NodeId n : p.nodes) h = HashCombine(h, n.id);
      for (RelId r : p.rels) h = HashCombine(h, r.id);
      return h;
    }
  }
  return seed;
}

size_t RowHash(const ValueList& row) {
  size_t h = row.size();
  for (const Value& v : row) h = HashCombine(h, ValueHash(v));
  return h;
}

bool RowEquivalent(const ValueList& a, const ValueList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValueEquivalent(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace gqlite
