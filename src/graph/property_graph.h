#ifndef GQLITE_GRAPH_PROPERTY_GRAPH_H_
#define GQLITE_GRAPH_PROPERTY_GRAPH_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/interner.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/value/value.h"

namespace gqlite {

class GraphWriteObserver;
class StorageInternals;

/// Property list used when creating/updating entities.
using PropertyList = std::vector<std::pair<std::string, Value>>;

/// An in-memory property graph G = ⟨N, R, src, tgt, ι, λ, τ⟩ (§4.1):
///  * N, R      — dense slots of node/relationship records (with tombstones
///                so ids stay stable under deletion);
///  * src, tgt  — stored on each relationship record;
///  * ι         — per-entity property lists (key → value);
///  * λ         — per-node label sets;
///  * τ         — per-relationship type.
///
/// The store keeps *direct adjacency references* — each node record holds
/// its outgoing and incoming relationship ids — which is the structural
/// property behind the paper's `Expand` operator ("the data representation
/// of Neo4j contains direct references from each node via its edges to the
/// related nodes", §2). A label index supports NodeByLabelScan.
///
/// Labels, relationship types and property keys are interned to dense ids.
///
/// ## Versioned snapshots (MVCC substrate)
///
/// Node/relationship slots live in fixed-size copy-on-write pages
/// (kPageSize records behind a shared_ptr), and the label index holds one
/// shared posting list per label (a Cow<std::vector<NodeId>>, not paged).
/// Snapshot() produces a new PropertyGraph that SHARES every page and
/// posting list with this one: it copies O(slots/kPageSize) page pointers
/// plus schema-sized state (interners, one posting pointer per label, the
/// count and statistics maps). After a snapshot, the first mutation
/// touching a page clones just that page (epoch-tagged: a payload is
/// written in place only while this graph object owns it exclusively), so
///  * a snapshot is deeply immutable — reader threads traverse it without
///    any locking while the live graph keeps committing, and
///  * the live graph pays slot-page copies proportional to the pages it
///    writes. Posting lists are the exception: after a snapshot, the
///    first create, delete, label or unlabel of a node carrying a label
///    copies that label's whole posting list.
/// Snapshots are frozen: mutators on a frozen graph fail (Status-returning
/// ones) or assert (infallible ones). The session layer (src/core/session)
/// is the intended consumer; it hands frozen snapshots to readers and
/// routes every write to the single live graph under the engine's writer
/// transaction.
///
/// Thread-safety: a PropertyGraph object is single-writer. Concurrent
/// READERS of a frozen snapshot are safe (nothing mutates shared pages);
/// the live graph must not be read while a writer mutates it — the engine
/// enforces this by running readers on snapshots.
///
/// References returned by accessors (NodeProperty, OutRels, ...) point
/// into the record's current page payload; a later mutation of ANY record
/// on the same page may copy-on-write the page and invalidate them. Copy
/// the Value (O(1), shared payload) instead of holding references across
/// mutations.
class PropertyGraph {
 public:
  PropertyGraph() = default;
  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;

  // ---- Versioned snapshots -------------------------------------------------

  /// An immutable snapshot of this graph's current state, sharing slot
  /// pages copy-on-write. Cheap (page-pointer vector + interner clone);
  /// safe to read from any number of threads while this graph keeps
  /// mutating. Marks every current page frozen, so subsequent writes to
  /// this graph clone the pages they touch.
  std::shared_ptr<PropertyGraph> Snapshot();

  /// A mutable copy sharing pages copy-on-write (the transaction-rollback
  /// restore path: re-materialize the last committed state as a fresh
  /// live graph). Content-equal to `*this` at call time.
  std::shared_ptr<PropertyGraph> Clone() const;

  /// True for graphs produced by Snapshot(): every mutator fails/asserts.
  bool frozen() const { return frozen_; }

  /// Monotonic counter of ALL mutations (structural and property). The
  /// engine compares it against the version captured at the last
  /// committed snapshot to decide whether a fresh read snapshot is
  /// needed. Unlike stats_version(), property SETs bump it.
  uint64_t data_version() const { return data_version_; }

  // ---- Creation ----------------------------------------------------------

  /// Creates a node with the given labels and properties; returns its id.
  NodeId CreateNode(const std::vector<std::string>& labels = {},
                    const PropertyList& props = {});

  /// Creates a relationship src -[type]-> tgt. Fails if an endpoint is
  /// missing or deleted, or if `type` is empty (τ is total on R).
  Result<RelId> CreateRelationship(NodeId src, NodeId tgt,
                                   std::string_view type,
                                   const PropertyList& props = {});

  // ---- Existence & cardinality -------------------------------------------

  bool IsNodeAlive(NodeId n) const {
    return n.id < node_slots_ && !node(n).deleted;
  }
  bool IsRelAlive(RelId r) const {
    return r.id < rel_slots_ && !rel(r).deleted;
  }
  /// Number of live nodes / relationships.
  size_t NumNodes() const { return num_nodes_; }
  size_t NumRels() const { return num_rels_; }
  /// Slot-space upper bounds for id iteration (ids < NumNodeSlots()).
  size_t NumNodeSlots() const { return node_slots_; }
  size_t NumRelSlots() const { return rel_slots_; }

  /// All live node ids (materialized; prefer slot iteration in hot paths).
  std::vector<NodeId> AllNodes() const;

  // ---- λ: labels ----------------------------------------------------------

  /// Label set of a node, as interned ids (sorted ascending).
  const std::vector<SymbolId>& NodeLabelIds(NodeId n) const {
    return node(n).labels;
  }
  std::vector<std::string> NodeLabels(NodeId n) const;
  bool NodeHasLabel(NodeId n, std::string_view label) const;
  bool NodeHasLabelId(NodeId n, SymbolId label) const;
  /// Adds/removes a label; returns true if the label set changed.
  bool AddLabel(NodeId n, std::string_view label);
  bool RemoveLabel(NodeId n, std::string_view label);

  // ---- τ: relationship types ---------------------------------------------

  SymbolId RelTypeId(RelId r) const { return rel(r).type; }
  const std::string& RelType(RelId r) const {
    return types_.ToString(rel(r).type);
  }

  // ---- src / tgt ----------------------------------------------------------

  NodeId Source(RelId r) const { return rel(r).src; }
  NodeId Target(RelId r) const { return rel(r).tgt; }
  /// The endpoint of `r` that is not `n` (for undirected traversal).
  NodeId OtherEnd(RelId r, NodeId n) const {
    return rel(r).src == n ? rel(r).tgt : rel(r).src;
  }

  // ---- ι: properties ------------------------------------------------------

  /// ι(entity, key); a null Value when the property is absent (the partial
  /// function is undefined), matching Cypher's `x.k` semantics. Returns a
  /// reference into the record (or a static null) — hot paths compare and
  /// copy without materializing an intermediate.
  const Value& NodeProperty(NodeId n, std::string_view key) const;
  const Value& RelProperty(RelId r, std::string_view key) const;
  /// Sets (or, with a null value, removes) a property. Returns the number
  /// of properties added/changed (0 or 1).
  int SetNodeProperty(NodeId n, std::string_view key, Value v);
  int SetRelProperty(RelId r, std::string_view key, Value v);
  /// All properties as a map value (the `properties()` function).
  ValueMap NodeProperties(NodeId n) const;
  ValueMap RelProperties(RelId r) const;
  std::vector<std::string> NodePropertyKeys(NodeId n) const;
  std::vector<std::string> RelPropertyKeys(RelId r) const;

  // ---- Adjacency (the Expand substrate) -----------------------------------

  const std::vector<RelId>& OutRels(NodeId n) const { return node(n).out; }
  const std::vector<RelId>& InRels(NodeId n) const { return node(n).in; }
  /// Incident slot count. NOTE: a self-loop appears in both `out` and
  /// `in`, so Degree counts it twice — callers counting distinct incident
  /// relationships (DETACH DELETE accounting) must not use this.
  size_t Degree(NodeId n) const {
    return node(n).out.size() + node(n).in.size();
  }

  // ---- Label index ---------------------------------------------------------

  /// Nodes currently carrying `label` (exact, maintained on mutation).
  const std::vector<NodeId>& NodesWithLabel(std::string_view label) const;

  // ---- Deletion -------------------------------------------------------------

  /// Deletes a relationship (unlinks it from both endpoints).
  Status DeleteRelationship(RelId r);
  /// Deletes a node; fails if it still has relationships (Cypher DELETE).
  Status DeleteNode(NodeId n);
  /// Deletes a node and all incident relationships (DETACH DELETE).
  /// Returns the number of relationships actually removed — a self-loop
  /// counts once (Degree would count it twice), and relationships a
  /// previous deletion already removed do not count at all. DELETE
  /// statement accounting must use this value, not a pre-delete Degree.
  Result<int64_t> DetachDeleteNode(NodeId n);

  // ---- Interners & statistics ----------------------------------------------

  /// Monotonic counter of plan-relevant structural changes: node and
  /// relationship creation/deletion and label changes — everything that
  /// moves the cardinality statistics the planner bakes into a plan (and
  /// the relationship-count bound substituted for ∞ in unbounded
  /// variable-length patterns). Property value updates do NOT bump it:
  /// plans evaluate property predicates at runtime, so cached plans stay
  /// valid across SET/REMOVE of properties. The plan cache uses this for
  /// generation-based invalidation; snapshots inherit the value at
  /// snapshot time (and, being frozen, never move it).
  uint64_t stats_version() const { return stats_version_; }

  const StringInterner& labels() const { return labels_; }
  const StringInterner& types() const { return types_; }
  const StringInterner& keys() const { return keys_; }
  SymbolId LookupLabel(std::string_view s) const { return labels_.Lookup(s); }
  SymbolId LookupType(std::string_view s) const { return types_.Lookup(s); }

  /// Live node count per label id / rel count per type id (for the cost
  /// model). Missing entries mean zero.
  const std::unordered_map<SymbolId, size_t>& LabelCounts() const {
    return label_counts_;
  }
  const std::unordered_map<SymbolId, size_t>& TypeCounts() const {
    return type_counts_;
  }

  // ---- Directional degree statistics ---------------------------------------

  /// Degree histograms are log2-bucketed: bucket b counts live nodes
  /// whose typed degree d (>= 1) has floor(log2 d) == b.
  static constexpr size_t kDegreeBuckets = 32;

  /// Per-relationship-type directional statistics, maintained
  /// incrementally by the relationship mutators (an O(degree) scan of
  /// the touched endpoint's adjacency per create/delete):
  ///  * distinct_sources/targets — live nodes with at least one
  ///    outgoing/incoming relationship of the type (conditional-fan
  ///    denominators for multi-level expands);
  ///  * out_hist/in_hist — log2-bucketed fan histograms (heavy-tail
  ///    bounds for var-length estimates).
  struct TypeDegreeStats {
    size_t distinct_sources = 0;
    size_t distinct_targets = 0;
    std::array<size_t, kDegreeBuckets> out_hist{};
    std::array<size_t, kDegreeBuckets> in_hist{};
  };

  /// Directional stats for `type`; nullptr if no relationship of that
  /// type was ever created.
  const TypeDegreeStats* DegreeStatsFor(SymbolId type) const;

  /// Live relationships of `type` whose source (out) / target (in) node
  /// currently carries `label`. Zero when the pair is absent.
  size_t LabelTypeOutCount(SymbolId label, SymbolId type) const;
  size_t LabelTypeInCount(SymbolId label, SymbolId type) const;

  /// Estimated distinct values ever written under the property key on
  /// nodes / relationships (insert-only KMV sketch: overwrites and
  /// deletes never retract, so after heavy rewriting the estimate can
  /// only overcount — which biases equality selectivity low, a safe
  /// direction for the planner). Exact while under 64 distinct values.
  /// Returns 0 when the key was never written.
  double NodePropertyNdv(std::string_view key) const;
  double RelPropertyNdv(std::string_view key) const;

  // ---- Rendering -----------------------------------------------------------

  /// Graph-aware display: nodes as `(:Label {k: v})`, relationships as
  /// `[:TYPE {k: v}]`, paths expanded, containers recursed.
  std::string Render(const Value& v) const;

  // ---- Write observation (durability hook) ---------------------------------

  /// Attaches (or, with nullptr, detaches) the observer every successful
  /// primitive mutation reports to — the WAL recorder of src/storage/.
  /// Not copied by Snapshot()/Clone(): snapshots are frozen, and clones
  /// (transaction-rollback restores) get a fresh observer attached by
  /// the transaction layer. Single-writer discipline covers the observer
  /// too: callbacks fire on the mutating thread only.
  void set_write_observer(GraphWriteObserver* observer) {
    observer_ = observer;
  }
  GraphWriteObserver* write_observer() const { return observer_; }

 private:
  /// The serialization backdoor of src/storage/ (checkpoint encode/decode
  /// and WAL replay): the ONE class allowed to touch record pages,
  /// interners and statistics directly, so the on-disk format can mirror
  /// the in-memory layout bit for bit without widening the public API.
  friend class StorageInternals;

  struct NodeRecord {
    bool deleted = false;
    std::vector<SymbolId> labels;  // sorted
    std::vector<std::pair<SymbolId, Value>> props;
    std::vector<RelId> out;
    std::vector<RelId> in;
  };
  struct RelRecord {
    bool deleted = false;
    NodeId src;
    NodeId tgt;
    SymbolId type = kNoSymbol;
    std::vector<std::pair<SymbolId, Value>> props;
  };

  /// 64 records per copy-on-write page: small enough that a point write
  /// after a snapshot copies little, large enough that the page-pointer
  /// vector (and thus Snapshot cost) stays 64x smaller than the slots.
  static constexpr size_t kPageBits = 6;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;
  static constexpr size_t kPageMask = kPageSize - 1;

  /// A shared payload plus the epoch at which THIS graph object last
  /// owned it exclusively. Writable in place iff epoch == epoch_;
  /// otherwise some snapshot/clone may share the payload and the writer
  /// clones it first (see MutableSlot).
  template <typename T>
  struct Cow {
    std::shared_ptr<T> payload;
    uint64_t epoch = 0;
  };
  template <typename Rec>
  using PageVec = std::vector<Cow<std::vector<Rec>>>;

  /// Copy-on-write copy: shares every page/posting payload, clones the
  /// interners and count maps. The copy's epoch is advanced past every
  /// shared payload's, so its first write to any page clones it.
  PropertyGraph(const PropertyGraph& other, bool frozen);

  const NodeRecord& node(NodeId n) const {
    return (*node_pages_[n.id >> kPageBits].payload)[n.id & kPageMask];
  }
  const RelRecord& rel(RelId r) const {
    return (*rel_pages_[r.id >> kPageBits].payload)[r.id & kPageMask];
  }
  template <typename Rec>
  Rec* MutableSlot(PageVec<Rec>* pages, size_t id);
  NodeRecord* MutableNode(NodeId n) {
    return MutableSlot(&node_pages_, n.id);
  }
  RelRecord* MutableRel(RelId r) { return MutableSlot(&rel_pages_, r.id); }
  /// Appends one slot (cloning/creating the tail page as needed) and
  /// returns the new record.
  template <typename Rec>
  Rec* AppendSlot(PageVec<Rec>* pages, size_t* slots);
  /// The label-index posting list for `s`, writable in place.
  std::vector<NodeId>* MutablePosting(SymbolId s);

  void AssertMutable() const {
    assert(!frozen_ && "mutating a frozen graph snapshot");
  }

  static const Value& GetProp(
      const std::vector<std::pair<SymbolId, Value>>& props, SymbolId key);
  static int SetProp(std::vector<std::pair<SymbolId, Value>>* props,
                     SymbolId key, Value v);

  /// Insert-only k-minimum-values distinct-count sketch: keeps the kK
  /// smallest distinct 64-bit hashes seen. Exact below kK (it simply
  /// holds every distinct hash); at capacity the estimate is
  /// (kK-1) * 2^64 / kth-smallest.
  struct KmvSketch {
    static constexpr size_t kK = 64;
    std::vector<uint64_t> mins;  // sorted ascending, distinct
    void Insert(uint64_t h);
    double Estimate() const;
  };

  static uint64_t LabelTypeKey(SymbolId label, SymbolId type) {
    return (static_cast<uint64_t>(label) << 32) | type;
  }
  /// floor(log2 d) clamped to the histogram width; d >= 1.
  static size_t DegreeBucket(size_t d);
  /// Count of relationships of `type` in the adjacency vector.
  size_t TypedDegree(const std::vector<RelId>& adj, SymbolId type) const;
  /// Re-buckets one node whose typed degree changed from `before` to
  /// `before + delta` (delta is +1 or -1), keeping the distinct-endpoint
  /// count in sync (a node enters at degree 1, leaves at degree 0).
  static void ShiftDegree(std::array<size_t, kDegreeBuckets>* hist,
                          size_t* distinct, size_t before, int delta);
  static void NoteNdv(std::unordered_map<SymbolId, KmvSketch>* ndv,
                      SymbolId key, const Value& v);

  PageVec<NodeRecord> node_pages_;
  PageVec<RelRecord> rel_pages_;
  size_t node_slots_ = 0;
  size_t rel_slots_ = 0;
  size_t num_nodes_ = 0;
  size_t num_rels_ = 0;
  uint64_t stats_version_ = 0;
  uint64_t data_version_ = 0;
  /// Epoch for the Cow ownership test; bumped by Snapshot() so every
  /// page held at snapshot time reads as shared.
  uint64_t epoch_ = 1;
  bool frozen_ = false;
  /// Deliberately absent from the copy constructor's init list: snapshots
  /// and clones start unobserved (see set_write_observer).
  GraphWriteObserver* observer_ = nullptr;

  StringInterner labels_;
  StringInterner types_;
  StringInterner keys_;

  std::unordered_map<SymbolId, Cow<std::vector<NodeId>>> label_index_;
  std::unordered_map<SymbolId, size_t> label_counts_;
  std::unordered_map<SymbolId, size_t> type_counts_;

  // Directional statistics (schema-sized: per type / per (label, type)
  // pair / per property key — Snapshot() copies stay cheap). Keys of the
  // label-type maps are LabelTypeKey-packed pairs.
  std::unordered_map<uint64_t, size_t> label_type_out_counts_;
  std::unordered_map<uint64_t, size_t> label_type_in_counts_;
  std::unordered_map<SymbolId, TypeDegreeStats> type_degree_stats_;
  std::unordered_map<SymbolId, KmvSketch> node_ndv_;
  std::unordered_map<SymbolId, KmvSketch> rel_ndv_;
};

}  // namespace gqlite

#endif  // GQLITE_GRAPH_PROPERTY_GRAPH_H_
