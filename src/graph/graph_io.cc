#include "src/graph/graph_io.h"

#include <cctype>

#include "src/value/value_format.h"

namespace gqlite {

namespace {

std::string EscapeString(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    switch (c) {
      case '\'':
        out += "\\'";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out + "'";
}

/// Identifiers (labels, types, keys) need backticks unless they are plain
/// words.
std::string QuoteIdent(const std::string& s) {
  bool plain = !s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) ||
                              s[0] == '_');
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      plain = false;
    }
  }
  if (plain) return s;
  return "`" + s + "`";
}

Result<std::string> PropsToCypher(const ValueMap& props) {
  if (props.empty()) return std::string();
  std::string out = " {";
  bool first = true;
  for (const auto& [k, v] : props) {
    if (!first) out += ", ";
    first = false;
    GQL_ASSIGN_OR_RETURN(std::string lit, ValueToCypherLiteral(v));
    out += QuoteIdent(k) + ": " + lit;
  }
  return out + "}";
}

}  // namespace

Result<std::string> ValueToCypherLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return std::string("null");
    case ValueType::kBool:
      return std::string(v.AsBool() ? "true" : "false");
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kFloat:
      return FormatFloat(v.AsFloat());
    case ValueType::kString:
      return EscapeString(v.AsString());
    case ValueType::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& e : v.AsList()) {
        if (!first) out += ", ";
        first = false;
        GQL_ASSIGN_OR_RETURN(std::string lit, ValueToCypherLiteral(e));
        out += lit;
      }
      return out + "]";
    }
    case ValueType::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, e] : v.AsMap()) {
        if (!first) out += ", ";
        first = false;
        GQL_ASSIGN_OR_RETURN(std::string lit, ValueToCypherLiteral(e));
        out += QuoteIdent(k) + ": " + lit;
      }
      return out + "}";
    }
    case ValueType::kDate:
      return "date(" + EscapeString(v.AsDate().ToString()) + ")";
    case ValueType::kLocalTime:
      return "localtime(" + EscapeString(v.AsLocalTime().ToString()) + ")";
    case ValueType::kTime:
      return "time(" + EscapeString(v.AsTime().ToString()) + ")";
    case ValueType::kLocalDateTime:
      return "localdatetime(" + EscapeString(v.AsLocalDateTime().ToString()) +
             ")";
    case ValueType::kDateTime:
      return "datetime(" + EscapeString(v.AsDateTime().ToString()) + ")";
    case ValueType::kDuration:
      return "duration(" + EscapeString(v.AsDuration().ToString()) + ")";
    case ValueType::kNode:
    case ValueType::kRelationship:
    case ValueType::kPath:
      return Status::InvalidArgument(
          "graph entities cannot be serialized as property literals");
  }
  return Status::Internal("unhandled value type");
}

std::string DumpToCypher(const PropertyGraph& g) {
  std::string out = "CREATE ";
  bool first = true;
  // Nodes, with stable aliases n<id>.
  for (size_t i = 0; i < g.NumNodeSlots(); ++i) {
    NodeId n{i};
    if (!g.IsNodeAlive(n)) continue;
    if (!first) out += ",\n       ";
    first = false;
    out += "(n" + std::to_string(i);
    for (const std::string& l : g.NodeLabels(n)) {
      out += ':';
      out += QuoteIdent(l);
    }
    auto props = PropsToCypher(g.NodeProperties(n));
    out += props.ok() ? *props : "";
    out += ")";
  }
  // Relationships.
  for (size_t i = 0; i < g.NumRelSlots(); ++i) {
    RelId r{i};
    if (!g.IsRelAlive(r)) continue;
    if (!first) out += ",\n       ";
    first = false;
    out += "(n" + std::to_string(g.Source(r).id) + ")-[:" +
           QuoteIdent(g.RelType(r));
    auto props = PropsToCypher(g.RelProperties(r));
    out += props.ok() ? *props : "";
    out += "]->(n" + std::to_string(g.Target(r).id) + ")";
  }
  if (first) return "";  // empty graph: no statement needed
  return out;
}

}  // namespace gqlite
