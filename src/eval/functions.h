#ifndef GQLITE_EVAL_FUNCTIONS_H_
#define GQLITE_EVAL_FUNCTIONS_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/value/value.h"

namespace gqlite {

struct EvalContext;

/// Dispatches a call to a built-in (non-aggregate) function — the paper's
/// predefined function set ℱ applied to values (§4.1 "we assume a finite
/// set ℱ of predefined functions"). Names arrive lowercased from the
/// parser. Unknown names yield kEvaluationError; most functions propagate
/// null arguments as null.
///
/// Implemented families:
///  * entities: id, labels, type, properties, keys, startNode, endNode,
///    degree, inDegree, outDegree
///  * paths/lists: length, size, nodes, relationships, head, last, tail,
///    reverse, range
///  * scalars: coalesce, toString, toInteger, toFloat, toBoolean
///  * math: abs, sign, ceil, floor, round, sqrt, exp, log, log10, sin,
///    cos, tan, asin, acos, atan, atan2, pi, e, rand
///  * strings: toUpper, toLower, trim, lTrim, rTrim, replace, split,
///    substring, left, right
///  * temporal (Cypher 10, §6): date, localtime, time, localdatetime,
///    datetime, duration, durationBetween
Result<Value> CallFunction(const std::string& name,
                           const std::vector<Value>& args,
                           const EvalContext& ctx);

}  // namespace gqlite

#endif  // GQLITE_EVAL_FUNCTIONS_H_
