#include "src/value/value_format.h"

#include <cmath>
#include <cstdio>

namespace gqlite {

namespace {

/// `open` id `close`, appended in order: GCC 12's -Wrestrict misfires on
/// `"literal" + std::to_string(id)` in Release builds.
std::string Bracketed(std::string_view open, uint64_t id,
                      std::string_view close) {
  std::string out(open);
  out += std::to_string(id);
  out += close;
  return out;
}

}  // namespace

std::string FormatFloat(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  std::string s = buf;
  // Ensure a float marker so 2.0 doesn't print as "2".
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

std::string FormatValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return v.AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kFloat:
      return FormatFloat(v.AsFloat());
    case ValueType::kString: {
      std::string_view s = v.AsString();
      std::string out;
      out.reserve(s.size() + 2);
      out += '\'';
      out += s;
      out += '\'';
      return out;
    }
    case ValueType::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& e : v.AsList()) {
        if (!first) out += ", ";
        first = false;
        out += FormatValue(e);
      }
      return out + "]";
    }
    case ValueType::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, val] : v.AsMap()) {
        if (!first) out += ", ";
        first = false;
        out += k + ": " + FormatValue(val);
      }
      return out + "}";
    }
    case ValueType::kNode:
      return Bracketed("(", v.AsNode().id, ")");
    case ValueType::kRelationship:
      return Bracketed("[:", v.AsRelationship().id, "]");
    case ValueType::kPath: {
      const Path& p = v.AsPath();
      std::string out = Bracketed("<(", p.nodes[0].id, ")");
      for (size_t i = 0; i < p.rels.size(); ++i) {
        out += "-[:" + std::to_string(p.rels[i].id) + "]-(" +
               std::to_string(p.nodes[i + 1].id) + ")";
      }
      return out + ">";
    }
    case ValueType::kDate:
      return v.AsDate().ToString();
    case ValueType::kLocalTime:
      return v.AsLocalTime().ToString();
    case ValueType::kTime:
      return v.AsTime().ToString();
    case ValueType::kLocalDateTime:
      return v.AsLocalDateTime().ToString();
    case ValueType::kDateTime:
      return v.AsDateTime().ToString();
    case ValueType::kDuration:
      return v.AsDuration().ToString();
  }
  return "?";
}

}  // namespace gqlite
