#ifndef GQLITE_GRAPH_GRAPH_CATALOG_H_
#define GQLITE_GRAPH_GRAPH_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/graph/property_graph.h"

namespace gqlite {

using GraphPtr = std::shared_ptr<PropertyGraph>;

/// An immutable copy of the catalog's name/URL bindings, taken at a
/// transaction's Begin (GraphCatalog::Capture). A snapshot-isolated
/// reader resolves FROM GRAPH references against this — a concurrent
/// RegisterGraph/RegisterUrl cannot change what its statements see
/// mid-transaction.
struct CatalogSnapshot {
  std::unordered_map<std::string, GraphPtr> graphs;
  std::unordered_map<std::string, GraphPtr> urls;
};

/// Named-graph catalog for the Cypher 10 multiple-graphs feature (§6).
/// Graph references can name in-catalog graphs or be resolved from URLs
/// ("hdfs://...", "bolt://..."): the paper's Example 6.1 loads graphs AT a
/// URL. We simulate external storage with a URL→graph registry (see
/// README, "Deliberate departures from the paper") so the resolution code
/// path is exercised without a network.
///
/// Every graph has one owner. The engine's transaction core owns the
/// default graph, which is not in the catalog. The catalog holds named and
/// URL graphs only, and each is a frozen value: registering a mutable
/// graph stores a snapshot of it (O(slots/4096)), so later writes to the
/// caller's object never show through the name, and nothing reachable
/// through the catalog can be written.
///
/// Thread-safety: INTERNALLY LOCKED — every method takes mu_ itself.
/// Methods hand out GraphPtr copies, never references into guarded state,
/// so callers hold no lock while using a resolved graph.
class GraphCatalog {
 public:
  /// Registers (or replaces) a named graph, frozen (see class comment).
  void RegisterGraph(std::string_view name, GraphPtr graph) EXCLUDES(mu_) {
    GraphPtr frozen = Freeze(std::move(graph));
    MutexLock lock(&mu_);
    graphs_[std::string(name)] = std::move(frozen);
  }

  /// Registers a URL as resolving to a frozen copy of `graph`.
  void RegisterUrl(std::string_view url, GraphPtr graph) EXCLUDES(mu_) {
    GraphPtr frozen = Freeze(std::move(graph));
    MutexLock lock(&mu_);
    urls_[std::string(url)] = std::move(frozen);
  }

  /// Resolves a graph by name.
  Result<GraphPtr> Resolve(std::string_view name) const EXCLUDES(mu_);

  /// Resolves a graph by URL (FROM GRAPH g AT "url"); executing such a
  /// statement (or PROFILE) also registers the result under `g`.
  Result<GraphPtr> ResolveUrl(std::string_view url) const EXCLUDES(mu_);

  /// Copies the current bindings for per-transaction pinning (see
  /// CatalogSnapshot). O(catalog size), taken once per Begin.
  std::shared_ptr<const CatalogSnapshot> Capture() const EXCLUDES(mu_) {
    auto snap = std::make_shared<CatalogSnapshot>();
    MutexLock lock(&mu_);
    snap->graphs = graphs_;
    snap->urls = urls_;
    return snap;
  }

 private:
  static GraphPtr Freeze(GraphPtr g) {
    return g->frozen() ? std::move(g) : g->Snapshot();
  }

  /// Mutable so const reads (Resolve) lock through the same capability as
  /// writers.
  mutable Mutex mu_;
  std::unordered_map<std::string, GraphPtr> graphs_ GUARDED_BY(mu_);
  std::unordered_map<std::string, GraphPtr> urls_ GUARDED_BY(mu_);
};

/// How the planner and interpreter see the catalog: the live catalog,
/// optionally overlaid with a transaction's pinned CatalogSnapshot.
/// Implicitly constructible from GraphCatalog* so non-transactional call
/// sites pass the catalog as before (live resolution).
///
/// Resolution checks the pinned snapshot first and falls back to the
/// live catalog only for names/URLs absent at Begin — bindings that
/// existed at Begin are STABLE for the whole transaction, while a graph
/// the transaction itself registers (FROM GRAPH ... AT self-registers
/// its name) still resolves later in the same transaction.
/// Registration always writes to the live catalog.
class CatalogRef {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate adapter.
  CatalogRef(GraphCatalog* live) : live_(live) {}
  CatalogRef(GraphCatalog* live, std::shared_ptr<const CatalogSnapshot> pinned)
      : live_(live), pinned_(std::move(pinned)) {}

  Result<GraphPtr> Resolve(std::string_view name) const {
    if (pinned_ != nullptr) {
      auto it = pinned_->graphs.find(std::string(name));
      if (it != pinned_->graphs.end()) return it->second;
    }
    return live_->Resolve(name);
  }
  Result<GraphPtr> ResolveUrl(std::string_view url) const {
    if (pinned_ != nullptr) {
      auto it = pinned_->urls.find(std::string(url));
      if (it != pinned_->urls.end()) return it->second;
    }
    return live_->ResolveUrl(url);
  }
  void RegisterGraph(std::string_view name, GraphPtr graph) const {
    live_->RegisterGraph(name, std::move(graph));
  }

 private:
  GraphCatalog* live_;
  std::shared_ptr<const CatalogSnapshot> pinned_;
};

}  // namespace gqlite

#endif  // GQLITE_GRAPH_GRAPH_CATALOG_H_
