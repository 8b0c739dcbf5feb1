#include "src/graph/graph_statistics.h"

#include <algorithm>

namespace gqlite {

double GraphStatistics::NodesWithLabel(std::string_view label) const {
  SymbolId s = g_.LookupLabel(label);
  if (s == kNoSymbol) return 0;
  auto it = g_.LabelCounts().find(s);
  return it == g_.LabelCounts().end() ? 0 : static_cast<double>(it->second);
}

double GraphStatistics::RelsWithType(std::string_view type) const {
  if (type.empty()) return RelCount();
  SymbolId s = g_.LookupType(type);
  if (s == kNoSymbol) return 0;
  auto it = g_.TypeCounts().find(s);
  return it == g_.TypeCounts().end() ? 0 : static_cast<double>(it->second);
}

double GraphStatistics::LabelTypeCount(std::string_view label,
                                       std::string_view type,
                                       bool out) const {
  SymbolId l = g_.LookupLabel(label);
  if (l == kNoSymbol) return 0;
  auto count_for = [&](SymbolId t) {
    return static_cast<double>(out ? g_.LabelTypeOutCount(l, t)
                                   : g_.LabelTypeInCount(l, t));
  };
  if (!type.empty()) {
    SymbolId t = g_.LookupType(type);
    return t == kNoSymbol ? 0 : count_for(t);
  }
  double total = 0;
  for (const auto& [t, n] : g_.TypeCounts()) {
    if (n > 0) total += count_for(t);
  }
  return total;
}

double GraphStatistics::OutDegree(std::string_view type,
                                  std::string_view src_label) const {
  if (src_label.empty()) {
    return RelsWithType(type) / std::max(NodeCount(), 1.0);
  }
  return LabelTypeCount(src_label, type, /*out=*/true) /
         std::max(NodesWithLabel(src_label), 1.0);
}

double GraphStatistics::InDegree(std::string_view type,
                                 std::string_view tgt_label) const {
  if (tgt_label.empty()) {
    return RelsWithType(type) / std::max(NodeCount(), 1.0);
  }
  return LabelTypeCount(tgt_label, type, /*out=*/false) /
         std::max(NodesWithLabel(tgt_label), 1.0);
}

namespace {

double DistinctEndpoints(const PropertyGraph& g, std::string_view type,
                         bool sources) {
  auto pick = [&](const PropertyGraph::TypeDegreeStats& ds) {
    return static_cast<double>(sources ? ds.distinct_sources
                                       : ds.distinct_targets);
  };
  if (!type.empty()) {
    SymbolId t = g.LookupType(type);
    if (t == kNoSymbol) return 0;
    const auto* ds = g.DegreeStatsFor(t);
    return ds == nullptr ? 0 : pick(*ds);
  }
  // Untyped: per-type distinct sets overlap, so the sum is an upper
  // bound; clamp by the node count.
  double total = 0;
  for (const auto& [t, n] : g.TypeCounts()) {
    if (n == 0) continue;
    const auto* ds = g.DegreeStatsFor(t);
    if (ds != nullptr) total += pick(*ds);
  }
  return std::min(total, static_cast<double>(g.NumNodes()));
}

}  // namespace

double GraphStatistics::DistinctSources(std::string_view type) const {
  return DistinctEndpoints(g_, type, /*sources=*/true);
}

double GraphStatistics::DistinctTargets(std::string_view type) const {
  return DistinctEndpoints(g_, type, /*sources=*/false);
}

double GraphStatistics::CondOutDegree(std::string_view type) const {
  double sources = DistinctSources(type);
  if (sources < 1) return 0;
  return RelsWithType(type) / sources;
}

double GraphStatistics::CondInDegree(std::string_view type) const {
  double targets = DistinctTargets(type);
  if (targets < 1) return 0;
  return RelsWithType(type) / targets;
}

}  // namespace gqlite
