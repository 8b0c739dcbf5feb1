#ifndef GQLITE_PLAN_LOGICAL_PLAN_H_
#define GQLITE_PLAN_LOGICAL_PLAN_H_

#include <string>
#include <vector>

#include "src/frontend/ast.h"

namespace gqlite {

/// Logical view of one path pattern for planning: the chain of node and
/// relationship positions with the columns assigned to them. Anonymous
/// positions get fresh hidden columns ("#nK"/"#rK") so relationship
/// isomorphism can be enforced across the whole MATCH tuple and label/
/// property constraints can be expressed as filters on real columns.
struct ChainPlan {
  struct NodePos {
    const ast::NodePattern* pattern = nullptr;
    std::string column;
    bool bound = false;  // already a column of the driving schema
  };
  struct RelPos {
    const ast::RelPattern* pattern = nullptr;
    std::string column;  // holds a relationship or (var-length) a list
    bool bound = false;  // rel variable bound by an earlier clause
  };
  std::vector<NodePos> nodes;  // size = hops + 1
  std::vector<RelPos> rels;    // size = hops
};

/// True if the pattern can be compiled to the scan/expand pipeline. Named
/// paths and repeated variable-length variables fall back to the
/// reference-matcher operator.
bool PipelinePlannable(const ast::Pattern& pattern);

/// Variables referenced by an expression, pattern-predicate property maps
/// included (free variables, not counting list-comprehension, quantifier
/// or reduce variables). Used for filter placement.
std::vector<std::string> ExprVariables(const ast::Expr& e);

/// Splits a predicate into its top-level AND conjuncts, so the planner
/// can place each one as soon as its variables are bound. It splits only
/// when every conjunct is a predicate form (a comparison; AND/OR/XOR/NOT
/// over predicate forms; IS [NOT] NULL; a label check; a boolean
/// literal; IN, STARTS WITH, ENDS WITH, CONTAINS; exists(...) or a
/// pattern predicate). Otherwise it returns the whole predicate, so a
/// non-boolean operand raises AND's own type error, as the interpreter
/// does, instead of the filter's. One difference remains: a conjunct
/// placed later never sees a row that an earlier-placed conjunct already
/// dropped, so an error that conjunct would raise on that row is masked.
std::vector<const ast::Expr*> SplitConjuncts(const ast::Expr& e);

}  // namespace gqlite

#endif  // GQLITE_PLAN_LOGICAL_PLAN_H_
