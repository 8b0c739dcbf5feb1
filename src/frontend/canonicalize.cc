#include "src/frontend/canonicalize.h"

#include <cstdio>
#include <set>
#include <utility>

#include "src/frontend/ast_printer.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

namespace {

/// Calls `fn` on every literal and parameter under `e`, left to right.
template <class Fn>
void ForEachLeaf(const Expr& e, Fn& fn) {
  if (e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kParameter) {
    fn(e);
    return;
  }
  ForEachChild(e, [&fn](const Expr& c) { ForEachLeaf(c, fn); });
}

/// Calls `fn` on every literal and parameter of `q`, left to right.
template <class Fn>
void ForEachLeaf(const Query& q, Fn fn) {
  for (const auto& part : q.parts) {
    for (const auto& c : part.clauses) {
      ForEachClauseExpr(*c, [&fn](const Expr& e) { ForEachLeaf(e, fn); });
    }
  }
}

/// The rewriting pass: replaces literal sub-expressions with synthetic
/// parameters through every runtime-evaluated position.
class Extractor {
 public:
  Extractor(std::set<std::string> reserved, AutoParameterization* out)
      : reserved_(std::move(reserved)), out_(out) {}

  void Rewrite(ExprPtr& e) {
    if (e->kind != Expr::Kind::kLiteral) {
      ForEachChildSlot(*e, [this](ExprPtr& c) { Rewrite(c); });
      return;
    }
    auto& lit = static_cast<LiteralExpr&>(*e);
    std::string name = FreshName();
    out_->extracted.emplace(name, std::move(lit.value));
    auto param = std::make_unique<ParameterExpr>(std::move(name));
    param->line = e->line;
    param->col = e->col;
    e = std::move(param);
    ++out_->count;
  }

  /// Projection bodies: SKIP/LIMIT (and WITH's WHERE) are runtime-evaluated
  /// and safe to extract; items and ORDER BY stay untouched (they feed
  /// derived column names and ORDER BY's column resolution — see header).
  void RewriteClause(Clause& c) {
    auto rewrite = [this](ExprPtr& e) {
      if (e) Rewrite(e);
    };
    switch (c.kind) {
      case Clause::Kind::kWith: {
        auto& w = static_cast<WithClause&>(c);
        rewrite(w.body.skip);
        rewrite(w.body.limit);
        rewrite(w.where);
        return;
      }
      case Clause::Kind::kReturn: {
        auto& r = static_cast<ReturnClause&>(c);
        rewrite(r.body.skip);
        rewrite(r.body.limit);
        return;
      }
      default:
        ForEachClauseExprSlot(c, rewrite);
        return;
    }
  }

 private:
  std::string FreshName() {
    while (true) {
      std::string name = "_p" + std::to_string(next_++);
      if (!reserved_.contains(name)) return name;
    }
  }

  std::set<std::string> reserved_;
  AutoParameterization* out_;
  int next_ = 0;
};

/// Exact, unambiguous serialization of a literal value for the cache
/// key. The unparsed query text alone is NOT injective: FormatValue
/// prints strings unescaped (`'a' + 'b'` vs the single literal
/// `a' + 'b` unparse identically) and floats at display precision, so
/// literals that survive canonicalization (projection items, ORDER BY)
/// could collide. Length-prefixed strings and round-trip float
/// formatting close both holes.
void AppendValueDigest(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      *out += 'n';
      return;
    case ValueType::kBool:
      *out += v.AsBool() ? 'T' : 'F';
      return;
    case ValueType::kInt:
      *out += 'i';
      *out += std::to_string(v.AsInt());
      return;
    case ValueType::kFloat: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "f%.17g", v.AsFloat());
      *out += buf;
      return;
    }
    case ValueType::kString:
      *out += 's';
      *out += std::to_string(v.AsString().size());
      *out += ':';
      *out += v.AsString();
      return;
    case ValueType::kList:
      *out += 'l';
      *out += std::to_string(v.AsList().size());
      *out += ':';
      for (const Value& e : v.AsList()) AppendValueDigest(e, out);
      return;
    default:
      // Remaining types (maps, temporal, entities) cannot appear as
      // parser literals; ToString keeps the digest total just in case.
      *out += 'o';
      *out += v.ToString();
      return;
  }
}

}  // namespace

AutoParameterization AutoParameterize(ast::Query* q) {
  std::set<std::string> reserved;
  ForEachLeaf(*q, [&reserved](const Expr& e) {
    if (e.kind == Expr::Kind::kParameter) {
      reserved.insert(static_cast<const ParameterExpr&>(e).name);
    }
  });
  AutoParameterization out;
  Extractor extractor(std::move(reserved), &out);
  for (auto& part : q->parts) {
    for (auto& c : part.clauses) extractor.RewriteClause(*c);
  }
  return out;
}

std::string NormalizedQueryKey(const ast::Query& q) {
  std::string key = UnparseQuery(q);
  // Unit separator: query text cannot contain it, so text + digest stay
  // unambiguous as a pair. The digest lists the literals still present
  // after canonicalization, left to right.
  key += '\x1f';
  ForEachLeaf(q, [&key](const Expr& e) {
    if (e.kind == Expr::Kind::kLiteral) {
      key += '|';
      AppendValueDigest(static_cast<const LiteralExpr&>(e).value, &key);
    }
  });
  return key;
}

}  // namespace gqlite
