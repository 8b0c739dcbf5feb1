#include "src/graph/property_graph.h"

#include <algorithm>
#include <cmath>

#include "src/graph/write_observer.h"
#include "src/value/value_compare.h"
#include "src/value/value_format.h"

namespace gqlite {

namespace {

/// splitmix64 finalizer: ValueHash clusters low bits for small integers;
/// KMV needs hashes uniform over the full 64-bit range.
uint64_t MixHash(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

// ---- Statistics plumbing ---------------------------------------------------

void PropertyGraph::KmvSketch::Insert(uint64_t h) {
  auto it = std::lower_bound(mins.begin(), mins.end(), h);
  if (it != mins.end() && *it == h) return;  // already counted
  if (mins.size() == kK) {
    if (h >= mins.back()) return;  // not among the k smallest
    mins.pop_back();
    it = std::lower_bound(mins.begin(), mins.end(), h);
  }
  mins.insert(it, h);
}

double PropertyGraph::KmvSketch::Estimate() const {
  if (mins.size() < kK) return static_cast<double>(mins.size());
  // kth-minimum estimator: k distinct hashes uniform on [0, 2^64) have
  // their kth smallest near k/NDV of the range.
  return static_cast<double>(kK - 1) * std::ldexp(1.0, 64) /
         static_cast<double>(mins.back());
}

size_t PropertyGraph::TypedDegree(const std::vector<RelId>& adj,
                                  SymbolId type) const {
  size_t d = 0;
  for (RelId r : adj) {
    if (rel(r).type == type) ++d;
  }
  return d;
}

void PropertyGraph::ShiftDegree(size_t* distinct, size_t before, int delta) {
  if (delta > 0 && before == 0) ++*distinct;  // the node's first typed rel
  if (delta < 0 && before == 1) --*distinct;  // the node's last typed rel
}

void PropertyGraph::NoteNdv(std::unordered_map<SymbolId, KmvSketch>* ndv,
                            SymbolId key, const Value& v) {
  (*ndv)[key].Insert(MixHash(static_cast<uint64_t>(ValueHash(v))));
}

const PropertyGraph::TypeDegreeStats* PropertyGraph::DegreeStatsFor(
    SymbolId type) const {
  auto it = type_degree_stats_.find(type);
  return it == type_degree_stats_.end() ? nullptr : &it->second;
}

size_t PropertyGraph::LabelTypeOutCount(SymbolId label, SymbolId type) const {
  auto it = label_type_out_counts_.find(LabelTypeKey(label, type));
  return it == label_type_out_counts_.end() ? 0 : it->second;
}

size_t PropertyGraph::LabelTypeInCount(SymbolId label, SymbolId type) const {
  auto it = label_type_in_counts_.find(LabelTypeKey(label, type));
  return it == label_type_in_counts_.end() ? 0 : it->second;
}

double PropertyGraph::NodePropertyNdv(std::string_view key) const {
  SymbolId k = keys_.Lookup(key);
  if (k == kNoSymbol) return 0;
  auto it = node_ndv_.find(k);
  return it == node_ndv_.end() ? 0 : it->second.Estimate();
}

double PropertyGraph::RelPropertyNdv(std::string_view key) const {
  SymbolId k = keys_.Lookup(key);
  if (k == kNoSymbol) return 0;
  auto it = rel_ndv_.find(k);
  return it == rel_ndv_.end() ? 0 : it->second.Estimate();
}

// ---- Copy-on-write plumbing ------------------------------------------------

namespace {
// Out of line, so that Owned's ownership test inlines into every slot
// write: a call per directory level slowed relationship creation ~10 %.
template <typename T>
[[gnu::noinline]] std::shared_ptr<T> CopyOf(const T& payload) {
  return std::make_shared<T>(payload);
}
}  // namespace

template <typename T>
T* PropertyGraph::Owned(Cow<T>* c) {
  if (c->epoch != epoch_) {
    // Some snapshot/clone may share this payload: write to a private copy.
    c->payload = CopyOf(*c->payload);
    c->epoch = epoch_;
  }
  return c->payload.get();
}

template <typename Rec>
Rec* PropertyGraph::MutableSlot(PageVec<Rec>* pages, size_t id) {
  AssertMutable();
  // A cloned leaf keeps its page tags, which predate epoch_, so the page
  // is cloned too.
  Leaf<Rec>* leaf = Owned(&(*pages)[id >> kLeafBits]);
  return &(*Owned(&(*leaf)[(id >> kPageBits) & kDirMask]))[id & kPageMask];
}

template <typename Rec>
Rec* PropertyGraph::AppendSlot(PageVec<Rec>* pages, size_t* slots) {
  AssertMutable();
  size_t id = (*slots)++;
  if ((id & kPageMask) != 0) return MutableSlot(pages, id);
  size_t page_index = (id >> kPageBits) & kDirMask;
  if (page_index == 0) {
    // First slot of a fresh leaf.
    pages->push_back({std::make_shared<Leaf<Rec>>(), epoch_});
  }
  // First slot of a fresh page, hung in the (private) tail leaf.
  auto& page = (*Owned(&pages->back()))[page_index];
  page = {std::make_shared<Page<Rec>>(), epoch_};
  return &(*page.payload)[0];
}

std::vector<NodeId>* PropertyGraph::MutablePosting(SymbolId s) {
  AssertMutable();
  auto& entry = label_index_[s];
  if (!entry.payload) {
    entry.payload = std::make_shared<std::vector<NodeId>>();
    entry.epoch = epoch_;
  }
  return Owned(&entry);
}

PropertyGraph::PropertyGraph(const PropertyGraph& other, bool frozen)
    : node_pages_(other.node_pages_),
      rel_pages_(other.rel_pages_),
      node_slots_(other.node_slots_),
      rel_slots_(other.rel_slots_),
      num_nodes_(other.num_nodes_),
      num_rels_(other.num_rels_),
      stats_version_(other.stats_version_),
      data_version_(other.data_version_),
      // Strictly past every shared payload's epoch, so the copy's first
      // write to any page clones it instead of mutating shared state.
      epoch_(other.epoch_ + 1),
      frozen_(frozen),
      labels_(other.labels_),
      types_(other.types_),
      keys_(other.keys_),
      label_index_(other.label_index_),
      label_counts_(other.label_counts_),
      type_counts_(other.type_counts_),
      label_type_out_counts_(other.label_type_out_counts_),
      label_type_in_counts_(other.label_type_in_counts_),
      type_degree_stats_(other.type_degree_stats_),
      node_ndv_(other.node_ndv_),
      rel_ndv_(other.rel_ndv_) {}

std::shared_ptr<PropertyGraph> PropertyGraph::Snapshot() {
  // Advance our own epoch FIRST: every page we currently hold becomes
  // "shared" from our perspective, so our next write clones it and the
  // snapshot keeps observing the pre-write payload.
  ++epoch_;
  return std::shared_ptr<PropertyGraph>(
      new PropertyGraph(*this, /*frozen=*/true));
}

std::shared_ptr<PropertyGraph> PropertyGraph::Clone() const {
  // A live source must stop owning what it now shares with the clone,
  // exactly as for Snapshot(). A frozen source never writes, so it keeps
  // its epoch and Clone() of a shared snapshot stays a pure read.
  if (!frozen_) ++epoch_;
  return std::shared_ptr<PropertyGraph>(
      new PropertyGraph(*this, /*frozen=*/false));
}

// ---- Creation --------------------------------------------------------------

NodeId PropertyGraph::CreateNode(const std::vector<std::string>& labels,
                                 const PropertyList& props) {
  AssertMutable();
  NodeId id{node_slots_};
  NodeRecord* rec = AppendSlot(&node_pages_, &node_slots_);
  for (const std::string& l : labels) {
    SymbolId s = labels_.Intern(l);
    if (std::find(rec->labels.begin(), rec->labels.end(), s) ==
        rec->labels.end()) {
      rec->labels.push_back(s);
    }
  }
  std::sort(rec->labels.begin(), rec->labels.end());
  for (const auto& [k, v] : props) {
    if (!v.is_null()) rec->props.emplace_back(keys_.Intern(k), v);
  }
  for (const auto& [k, v] : rec->props) NoteNdv(&node_ndv_, k, v);
  ++num_nodes_;
  ++stats_version_;
  ++data_version_;
  for (SymbolId s : node(id).labels) {
    MutablePosting(s)->push_back(id);
    ++label_counts_[s];
  }
  if (observer_ != nullptr) observer_->OnCreateNode(id, labels, props);
  return id;
}

Result<RelId> PropertyGraph::CreateRelationship(NodeId src, NodeId tgt,
                                                std::string_view type,
                                                const PropertyList& props) {
  if (frozen_) {
    return Status::InvalidArgument("cannot mutate a frozen graph snapshot");
  }
  if (!IsNodeAlive(src) || !IsNodeAlive(tgt)) {
    return Status::InvalidArgument(
        "relationship endpoint does not exist or was deleted");
  }
  if (type.empty()) {
    return Status::InvalidArgument("relationship type must be non-empty");
  }
  RelId id{rel_slots_};
  RelRecord* rec = AppendSlot(&rel_pages_, &rel_slots_);
  rec->src = src;
  rec->tgt = tgt;
  rec->type = types_.Intern(type);
  for (const auto& [k, v] : props) {
    if (!v.is_null()) rec->props.emplace_back(keys_.Intern(k), v);
  }
  for (const auto& [k, v] : rec->props) NoteNdv(&rel_ndv_, k, v);
  SymbolId t = rec->type;
  ++num_rels_;
  ++stats_version_;
  ++data_version_;
  ++type_counts_[t];
  MutableNode(src)->out.push_back(id);
  MutableNode(tgt)->in.push_back(id);
  // Directional statistics: the endpoints' typed degrees just moved
  // d -> d+1 (adjacency vectors hold only live relationships).
  TypeDegreeStats& ds = type_degree_stats_[t];
  ShiftDegree(&ds.distinct_sources, TypedDegree(node(src).out, t) - 1, +1);
  ShiftDegree(&ds.distinct_targets, TypedDegree(node(tgt).in, t) - 1, +1);
  for (SymbolId l : node(src).labels) {
    ++label_type_out_counts_[LabelTypeKey(l, t)];
  }
  for (SymbolId l : node(tgt).labels) {
    ++label_type_in_counts_[LabelTypeKey(l, t)];
  }
  if (observer_ != nullptr) {
    observer_->OnCreateRelationship(id, src, tgt, type, props);
  }
  return id;
}

// ---- Labels ----------------------------------------------------------------

std::vector<std::string> PropertyGraph::NodeLabels(NodeId n) const {
  std::vector<std::string> out;
  for (SymbolId s : node(n).labels) out.push_back(labels_.ToString(s));
  return out;
}

bool PropertyGraph::NodeHasLabel(NodeId n, std::string_view label) const {
  SymbolId s = labels_.Lookup(label);
  return s != kNoSymbol && NodeHasLabelId(n, s);
}

bool PropertyGraph::NodeHasLabelId(NodeId n, SymbolId label) const {
  const auto& ls = node(n).labels;
  return std::binary_search(ls.begin(), ls.end(), label);
}

bool PropertyGraph::AddLabel(NodeId n, std::string_view label) {
  AssertMutable();
  SymbolId s = labels_.Intern(label);
  auto& ls = MutableNode(n)->labels;
  auto it = std::lower_bound(ls.begin(), ls.end(), s);
  if (it != ls.end() && *it == s) return false;
  ls.insert(it, s);
  MutablePosting(s)->push_back(n);
  ++label_counts_[s];
  for (RelId r : node(n).out) {
    ++label_type_out_counts_[LabelTypeKey(s, rel(r).type)];
  }
  for (RelId r : node(n).in) {
    ++label_type_in_counts_[LabelTypeKey(s, rel(r).type)];
  }
  ++stats_version_;
  ++data_version_;
  if (observer_ != nullptr) observer_->OnAddLabel(n, label);
  return true;
}

bool PropertyGraph::RemoveLabel(NodeId n, std::string_view label) {
  AssertMutable();
  SymbolId s = labels_.Lookup(label);
  if (s == kNoSymbol) return false;
  auto& ls = MutableNode(n)->labels;
  auto it = std::lower_bound(ls.begin(), ls.end(), s);
  if (it == ls.end() || *it != s) return false;
  ls.erase(it);
  std::vector<NodeId>* idx = MutablePosting(s);
  idx->erase(std::remove(idx->begin(), idx->end(), n), idx->end());
  --label_counts_[s];
  for (RelId r : node(n).out) {
    --label_type_out_counts_[LabelTypeKey(s, rel(r).type)];
  }
  for (RelId r : node(n).in) {
    --label_type_in_counts_[LabelTypeKey(s, rel(r).type)];
  }
  ++stats_version_;
  ++data_version_;
  if (observer_ != nullptr) observer_->OnRemoveLabel(n, label);
  return true;
}

// ---- Properties ------------------------------------------------------------

const Value& PropertyGraph::GetProp(
    const std::vector<std::pair<SymbolId, Value>>& props, SymbolId key) {
  static const Value kAbsent;  // ι is partial: absent keys read as null
  if (key == kNoSymbol) return kAbsent;
  for (const auto& [k, v] : props) {
    if (k == key) return v;
  }
  return kAbsent;
}

int PropertyGraph::SetProp(std::vector<std::pair<SymbolId, Value>>* props,
                           SymbolId key, Value v) {
  for (auto it = props->begin(); it != props->end(); ++it) {
    if (it->first == key) {
      if (v.is_null()) {
        props->erase(it);
      } else {
        it->second = std::move(v);
      }
      return 1;
    }
  }
  if (v.is_null()) return 0;
  props->emplace_back(key, std::move(v));
  return 1;
}

const Value& PropertyGraph::NodeProperty(NodeId n,
                                         std::string_view key) const {
  return GetProp(node(n).props, keys_.Lookup(key));
}

const Value& PropertyGraph::RelProperty(RelId r,
                                        std::string_view key) const {
  return GetProp(rel(r).props, keys_.Lookup(key));
}

const Value& PropertyGraph::NodePropertyById(NodeId n, SymbolId key) const {
  return GetProp(node(n).props, key);
}

const Value& PropertyGraph::RelPropertyById(RelId r, SymbolId key) const {
  return GetProp(rel(r).props, key);
}

int PropertyGraph::SetNodeProperty(NodeId n, std::string_view key, Value v) {
  AssertMutable();
  SymbolId k = keys_.Intern(key);
  if (!v.is_null()) NoteNdv(&node_ndv_, k, v);
  Value observed;  // O(1) copy, taken before SetProp consumes v
  if (observer_ != nullptr) observed = v;
  int changed = SetProp(&MutableNode(n)->props, k, std::move(v));
  if (changed != 0) {
    ++data_version_;
    if (observer_ != nullptr) observer_->OnSetNodeProperty(n, key, observed);
  }
  return changed;
}

int PropertyGraph::SetRelProperty(RelId r, std::string_view key, Value v) {
  AssertMutable();
  SymbolId k = keys_.Intern(key);
  if (!v.is_null()) NoteNdv(&rel_ndv_, k, v);
  Value observed;  // O(1) copy, taken before SetProp consumes v
  if (observer_ != nullptr) observed = v;
  int changed = SetProp(&MutableRel(r)->props, k, std::move(v));
  if (changed != 0) {
    ++data_version_;
    if (observer_ != nullptr) observer_->OnSetRelProperty(r, key, observed);
  }
  return changed;
}

ValueMap PropertyGraph::NodeProperties(NodeId n) const {
  ValueMap out;
  for (const auto& [k, v] : node(n).props) out[keys_.ToString(k)] = v;
  return out;
}

ValueMap PropertyGraph::RelProperties(RelId r) const {
  ValueMap out;
  for (const auto& [k, v] : rel(r).props) out[keys_.ToString(k)] = v;
  return out;
}

std::vector<std::string> PropertyGraph::NodePropertyKeys(NodeId n) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : node(n).props) out.push_back(keys_.ToString(k));
  return out;
}

std::vector<std::string> PropertyGraph::RelPropertyKeys(RelId r) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : rel(r).props) out.push_back(keys_.ToString(k));
  return out;
}

const std::vector<NodeId>& PropertyGraph::NodesWithLabel(
    std::string_view label) const {
  static const std::vector<NodeId> kEmpty;
  SymbolId s = labels_.Lookup(label);
  if (s == kNoSymbol) return kEmpty;
  auto it = label_index_.find(s);
  return it == label_index_.end() || !it->second.payload
             ? kEmpty
             : *it->second.payload;
}

// ---- Deletion --------------------------------------------------------------

Status PropertyGraph::DeleteRelationship(RelId r) {
  if (frozen_) {
    return Status::InvalidArgument("cannot mutate a frozen graph snapshot");
  }
  if (!IsRelAlive(r)) {
    return Status::InvalidArgument("relationship already deleted");
  }
  RelRecord* rec = MutableRel(r);
  SymbolId t = rec->type;
  NodeId src = rec->src;
  NodeId tgt = rec->tgt;
  auto unlink = [r](std::vector<RelId>* v) {
    v->erase(std::remove(v->begin(), v->end(), r), v->end());
  };
  unlink(&MutableNode(src)->out);
  unlink(&MutableNode(tgt)->in);
  --type_counts_[t];
  // Directional statistics: endpoints' typed degrees moved d -> d-1.
  TypeDegreeStats& ds = type_degree_stats_[t];
  ShiftDegree(&ds.distinct_sources, TypedDegree(node(src).out, t) + 1, -1);
  ShiftDegree(&ds.distinct_targets, TypedDegree(node(tgt).in, t) + 1, -1);
  for (SymbolId l : node(src).labels) {
    --label_type_out_counts_[LabelTypeKey(l, t)];
  }
  for (SymbolId l : node(tgt).labels) {
    --label_type_in_counts_[LabelTypeKey(l, t)];
  }
  rec->deleted = true;
  rec->props.clear();
  --num_rels_;
  ++stats_version_;
  ++data_version_;
  if (observer_ != nullptr) observer_->OnDeleteRelationship(r);
  return Status::OK();
}

Status PropertyGraph::DeleteNode(NodeId n) {
  if (frozen_) {
    return Status::InvalidArgument("cannot mutate a frozen graph snapshot");
  }
  if (!IsNodeAlive(n)) return Status::InvalidArgument("node already deleted");
  if (Degree(n) > 0) {
    return Status::InvalidArgument(
        "cannot delete node with relationships; use DETACH DELETE");
  }
  NodeRecord* rec = MutableNode(n);
  for (SymbolId s : rec->labels) {
    std::vector<NodeId>* idx = MutablePosting(s);
    idx->erase(std::remove(idx->begin(), idx->end(), n), idx->end());
    --label_counts_[s];
  }
  rec->deleted = true;
  rec->labels.clear();
  rec->props.clear();
  --num_nodes_;
  ++stats_version_;
  ++data_version_;
  if (observer_ != nullptr) observer_->OnDeleteNode(n);
  return Status::OK();
}

Result<int64_t> PropertyGraph::DetachDeleteNode(NodeId n) {
  if (frozen_) {
    return Status::InvalidArgument("cannot mutate a frozen graph snapshot");
  }
  if (!IsNodeAlive(n)) return Status::InvalidArgument("node already deleted");
  // Copy: DeleteRelationship mutates the adjacency vectors.
  std::vector<RelId> incident = node(n).out;
  incident.insert(incident.end(), node(n).in.begin(), node(n).in.end());
  int64_t removed = 0;
  for (RelId r : incident) {
    // A self-loop appears in both `out` and `in`; the second occurrence
    // is no longer alive and is (correctly) counted once, not twice.
    if (IsRelAlive(r)) {
      GQL_RETURN_IF_ERROR(DeleteRelationship(r));
      ++removed;
    }
  }
  GQL_RETURN_IF_ERROR(DeleteNode(n));
  return removed;
}

// ---- Rendering -------------------------------------------------------------

namespace {

std::string RenderProps(const ValueMap& props) {
  if (props.empty()) return "";
  std::string out = " {";
  bool first = true;
  for (const auto& [k, v] : props) {
    if (!first) out += ", ";
    first = false;
    out += k + ": " + FormatValue(v);
  }
  return out + "}";
}

}  // namespace

std::string PropertyGraph::Render(const Value& v) const {
  switch (v.type()) {
    case ValueType::kNode: {
      NodeId n = v.AsNode();
      if (!IsNodeAlive(n)) return "(deleted)";
      std::string out = "(";
      for (SymbolId s : NodeLabelIds(n)) out += ":" + labels_.ToString(s);
      out += RenderProps(NodeProperties(n));
      return out + ")";
    }
    case ValueType::kRelationship: {
      RelId r = v.AsRelationship();
      if (!IsRelAlive(r)) return "[deleted]";
      return "[:" + RelType(r) + RenderProps(RelProperties(r)) + "]";
    }
    case ValueType::kPath: {
      const Path& p = v.AsPath();
      std::string out = Render(Value::Node(p.nodes[0]));
      for (size_t i = 0; i < p.rels.size(); ++i) {
        RelId r = p.rels[i];
        bool forward = IsRelAlive(r) && Source(r) == p.nodes[i];
        out += forward ? "-" : "<-";
        out += Render(Value::Relationship(r));
        out += forward ? "->" : "-";
        out += Render(Value::Node(p.nodes[i + 1]));
      }
      return out;
    }
    case ValueType::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& e : v.AsList()) {
        if (!first) out += ", ";
        first = false;
        out += Render(e);
      }
      return out + "]";
    }
    case ValueType::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, e] : v.AsMap()) {
        if (!first) out += ", ";
        first = false;
        out += k + ": " + Render(e);
      }
      return out + "}";
    }
    default:
      return FormatValue(v);
  }
}

}  // namespace gqlite

