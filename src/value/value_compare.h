#ifndef GQLITE_VALUE_VALUE_COMPARE_H_
#define GQLITE_VALUE_VALUE_COMPARE_H_

#include <cstddef>

#include "src/value/value.h"

namespace gqlite {

/// Three-valued logic truth values. Cypher uses SQL's 3VL (§4.3 "Logic:
/// Just like SQL, Cypher uses 3-value logic for dealing with nulls").
enum class Tri : uint8_t { kFalse = 0, kNull = 1, kTrue = 2 };

inline Tri TriFromBool(bool b) { return b ? Tri::kTrue : Tri::kFalse; }

/// SQL truth tables for the connectives of Figure 5 (OR/AND/XOR/NOT).
Tri TriAnd(Tri a, Tri b);
Tri TriOr(Tri a, Tri b);
Tri TriXor(Tri a, Tri b);
Tri TriNot(Tri a);

/// Cypher *equality* (the `=` operator): 3VL.
///  * null = anything  → null
///  * numbers compare numerically across int/float; NaN ≠ everything
///  * lists/maps recurse with 3VL (null inside propagates)
///  * values of different (non-numeric-coercible) types → false
Tri ValueEquals(const Value& a, const Value& b);

/// Cypher *ordering* comparison (`<`): 3VL. Only numbers-with-numbers,
/// strings, booleans, lists (lexicographic), and same-family temporals are
/// comparable; anything else (including any null operand) yields kNull.
/// Returns the truth of `a < b`; other comparators derive from it plus
/// equality.
Tri ValueLess(const Value& a, const Value& b);

/// Cypher *equivalence*, used for grouping keys, DISTINCT and UNION
/// de-duplication: like equality but null ≡ null and NaN ≡ NaN.
bool ValueEquivalent(const Value& a, const Value& b);

/// Global orderability: a total order over *all* values, used by ORDER BY.
/// Ascending type order (openCypher CIP2016-06-14): MAP < NODE <
/// RELATIONSHIP < LIST < PATH < DATETIME < LOCALDATETIME < DATE < TIME <
/// LOCALTIME < DURATION < STRING < BOOLEAN < NUMBER < null. Within numbers,
/// ints and floats interleave numerically and NaN sorts after +inf.
/// Returns <0, 0, >0.
int ValueOrder(const Value& a, const Value& b);

/// Hash consistent with ValueEquivalent (for grouping/DISTINCT hash maps).
size_t ValueHash(const Value& v);

/// Functor pair for unordered containers keyed by equivalence.
struct ValueEquivalenceHash {
  size_t operator()(const Value& v) const { return ValueHash(v); }
};
struct ValueEquivalenceEq {
  bool operator()(const Value& a, const Value& b) const {
    return ValueEquivalent(a, b);
  }
};

/// Hash/equivalence over rows (vectors of values), used for DISTINCT,
/// grouping and UNION.
size_t RowHash(const ValueList& row);
bool RowEquivalent(const ValueList& a, const ValueList& b);

struct RowEquivalenceHash {
  size_t operator()(const ValueList& r) const { return RowHash(r); }
};
struct RowEquivalenceEq {
  bool operator()(const ValueList& a, const ValueList& b) const {
    return RowEquivalent(a, b);
  }
};

}  // namespace gqlite

#endif  // GQLITE_VALUE_VALUE_COMPARE_H_
