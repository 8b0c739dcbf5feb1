#ifndef GQLITE_GRAPH_GRAPH_STATISTICS_H_
#define GQLITE_GRAPH_GRAPH_STATISTICS_H_

#include <string_view>

#include "src/graph/property_graph.h"

namespace gqlite {

/// Cardinality statistics over a PropertyGraph, the inputs to the cost
/// model (§2 "Neo4j implementation": query planning "based on the IDP
/// algorithm, using a cost model"). Counts, distinct endpoints per
/// relationship type and label-conditioned fans are exact and maintained
/// incrementally by the graph; property NDV comes from insert-only KMV
/// sketches (exact below 64 distinct values, estimated above). A
/// GraphStatistics view over a frozen snapshot answers for exactly that
/// snapshot's state — estimates are computed against the executing
/// snapshot, never the drifting live graph.
class GraphStatistics {
 public:
  explicit GraphStatistics(const PropertyGraph& g) : g_(g) {}

  double NodeCount() const { return static_cast<double>(g_.NumNodes()); }
  double RelCount() const { return static_cast<double>(g_.NumRels()); }

  /// Number of nodes with `label`; 0 if the label is unknown.
  double NodesWithLabel(std::string_view label) const;

  /// Number of relationships of `type`; if empty, all relationships.
  double RelsWithType(std::string_view type) const;

  // ---- Directional fans ----------------------------------------------------

  /// Average OUTGOING fan per candidate node for relationships of
  /// `type` (empty = any type), optionally conditioned on the source
  /// carrying `src_label`: rels(src_label, type) / nodes(src_label).
  double OutDegree(std::string_view type,
                   std::string_view src_label = {}) const;
  /// Average INCOMING fan per candidate node, optionally conditioned on
  /// the target carrying `tgt_label`.
  double InDegree(std::string_view type,
                  std::string_view tgt_label = {}) const;

  /// Nodes with at least one outgoing / incoming relationship of
  /// `type` (empty type: any relationship at all).
  double DistinctSources(std::string_view type) const;
  double DistinctTargets(std::string_view type) const;

  /// Conditional fan: rels(type) / distinct sources(type) — the
  /// expected fan from a node KNOWN to have at least one outgoing
  /// relationship of the type. Levels >= 2 of a variable-length expand
  /// use this: the frontier only contains such nodes.
  double CondOutDegree(std::string_view type) const;
  double CondInDegree(std::string_view type) const;

  // ---- Property NDV --------------------------------------------------------

  /// Estimated distinct values of the node / relationship property (0
  /// when never written; see PropertyGraph::NodePropertyNdv for the
  /// insert-only overcount caveat).
  double NodePropertyNdv(std::string_view key) const {
    return g_.NodePropertyNdv(key);
  }
  double RelPropertyNdv(std::string_view key) const {
    return g_.RelPropertyNdv(key);
  }

 private:
  /// rels of `type` whose src/tgt carries `label` (exact maintained
  /// count); `out` picks the direction.
  double LabelTypeCount(std::string_view label, std::string_view type,
                        bool out) const;

  const PropertyGraph& g_;
};

}  // namespace gqlite

#endif  // GQLITE_GRAPH_GRAPH_STATISTICS_H_
