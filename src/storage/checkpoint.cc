#include "src/storage/checkpoint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/storage/crc32.h"
#include "src/storage/io_file.h"
#include "src/storage/record_codec.h"

namespace gqlite {

namespace {

constexpr std::string_view kCkptMagic = "GQLCKP1\n";
constexpr uint32_t kCkptVersion = 2;

/// Sorted keys of an unordered_map, so sections serialize
/// deterministically (same graph state => byte-identical checkpoint).
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void EncodeInterner(const StringInterner& interner, BinaryWriter* w) {
  // Id 0 is the reserved empty symbol; persisted ids start at 1.
  w->PutU32(static_cast<uint32_t>(interner.size() - 1));
  for (SymbolId id = 1; id < interner.size(); ++id) {
    w->PutString(interner.ToString(id));
  }
}

Status DecodeInterner(BinaryReader* r, StringInterner* interner) {
  GQL_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  for (uint32_t i = 1; i <= n; ++i) {
    GQL_ASSIGN_OR_RETURN(std::string s, r->String());
    SymbolId got = interner->Intern(s);
    if (got != i) {
      return Status::Corruption("interner id drift at symbol " +
                                std::to_string(i));
    }
  }
  return Status::OK();
}

void EncodeProps(const std::vector<std::pair<SymbolId, Value>>& props,
                 BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(props.size()));
  for (const auto& [k, v] : props) {
    w->PutU32(k);
    w->PutValue(v);
  }
}

Status DecodeProps(BinaryReader* r,
                   std::vector<std::pair<SymbolId, Value>>* props) {
  GQL_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > r->remaining()) return Status::Corruption("prop count too large");
  props->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GQL_ASSIGN_OR_RETURN(uint32_t k, r->U32());
    GQL_ASSIGN_OR_RETURN(Value v, r->ReadValue());
    props->emplace_back(k, std::move(v));
  }
  return Status::OK();
}

}  // namespace

void StorageInternals::EncodeGraph(const PropertyGraph& g, uint64_t last_lsn,
                                   std::string* out) {
  BinaryWriter w(out);
  w.PutU64(last_lsn);
  w.PutU64(g.node_slots_);
  w.PutU64(g.rel_slots_);
  w.PutU64(g.num_nodes_);
  w.PutU64(g.num_rels_);
  w.PutU64(g.stats_version_);
  w.PutU64(g.data_version_);

  EncodeInterner(g.labels_, &w);
  EncodeInterner(g.types_, &w);
  EncodeInterner(g.keys_, &w);

  // Records, in slot order, tombstones included — slot ids ARE the
  // entity ids, so the dump preserves them by construction.
  for (size_t i = 0; i < g.node_slots_; ++i) {
    const PropertyGraph::NodeRecord& rec = g.node(NodeId{i});
    w.PutU8(rec.deleted ? 1 : 0);
    w.PutU32(static_cast<uint32_t>(rec.labels.size()));
    for (SymbolId s : rec.labels) w.PutU32(s);
    EncodeProps(rec.props, &w);
    w.PutU32(static_cast<uint32_t>(rec.out.size()));
    for (RelId r : rec.out) w.PutU64(r.id);
    w.PutU32(static_cast<uint32_t>(rec.in.size()));
    for (RelId r : rec.in) w.PutU64(r.id);
  }
  for (size_t i = 0; i < g.rel_slots_; ++i) {
    const PropertyGraph::RelRecord& rec = g.rel(RelId{i});
    w.PutU8(rec.deleted ? 1 : 0);
    w.PutU64(rec.src.id);
    w.PutU64(rec.tgt.id);
    w.PutU32(rec.type);
    EncodeProps(rec.props, &w);
  }

  // Label-index postings, verbatim (posting order is observable via
  // NodeByLabelScan row order).
  {
    std::vector<SymbolId> keys = SortedKeys(g.label_index_);
    w.PutU32(static_cast<uint32_t>(keys.size()));
    for (SymbolId s : keys) {
      const auto& entry = g.label_index_.at(s);
      w.PutU32(s);
      if (!entry.payload) {
        w.PutU32(0);
        continue;
      }
      w.PutU32(static_cast<uint32_t>(entry.payload->size()));
      for (NodeId n : *entry.payload) w.PutU64(n.id);
    }
  }

  // Statistics. The KMV sketches are insert-only (deletes never
  // retract), so they cannot be recomputed from live records — they are
  // persisted exactly.
  auto encode_sym_count = [&w](const std::unordered_map<SymbolId, size_t>& m) {
    std::vector<SymbolId> keys = SortedKeys(m);
    w.PutU32(static_cast<uint32_t>(keys.size()));
    for (SymbolId s : keys) {
      w.PutU32(s);
      w.PutU64(m.at(s));
    }
  };
  encode_sym_count(g.label_counts_);
  encode_sym_count(g.type_counts_);
  auto encode_pair_count = [&w](const std::unordered_map<uint64_t, size_t>& m) {
    std::vector<uint64_t> keys = SortedKeys(m);
    w.PutU32(static_cast<uint32_t>(keys.size()));
    for (uint64_t k : keys) {
      w.PutU64(k);
      w.PutU64(m.at(k));
    }
  };
  encode_pair_count(g.label_type_out_counts_);
  encode_pair_count(g.label_type_in_counts_);
  {
    std::vector<SymbolId> keys = SortedKeys(g.type_degree_stats_);
    w.PutU32(static_cast<uint32_t>(keys.size()));
    for (SymbolId s : keys) {
      const PropertyGraph::TypeDegreeStats& ds = g.type_degree_stats_.at(s);
      w.PutU32(s);
      w.PutU64(ds.distinct_sources);
      w.PutU64(ds.distinct_targets);
    }
  }
  auto encode_ndv =
      [&w](const std::unordered_map<SymbolId, PropertyGraph::KmvSketch>& m) {
        std::vector<SymbolId> keys = SortedKeys(m);
        w.PutU32(static_cast<uint32_t>(keys.size()));
        for (SymbolId s : keys) {
          const auto& sketch = m.at(s);
          w.PutU32(s);
          w.PutU32(static_cast<uint32_t>(sketch.mins.size()));
          for (uint64_t h : sketch.mins) w.PutU64(h);
        }
      };
  encode_ndv(g.node_ndv_);
  encode_ndv(g.rel_ndv_);
}

Result<RecoveredGraph> StorageInternals::DecodeGraph(std::string_view body) {
  BinaryReader r(body);
  RecoveredGraph out;
  out.graph = std::make_shared<PropertyGraph>();
  PropertyGraph& g = *out.graph;

  GQL_ASSIGN_OR_RETURN(out.last_lsn, r.U64());
  GQL_ASSIGN_OR_RETURN(uint64_t node_slots, r.U64());
  GQL_ASSIGN_OR_RETURN(uint64_t rel_slots, r.U64());
  GQL_ASSIGN_OR_RETURN(g.num_nodes_, r.U64());
  GQL_ASSIGN_OR_RETURN(g.num_rels_, r.U64());
  GQL_ASSIGN_OR_RETURN(g.stats_version_, r.U64());
  GQL_ASSIGN_OR_RETURN(g.data_version_, r.U64());
  // Each record costs at least one byte; reject absurd counts before
  // looping (a corrupt length must not allocate unboundedly).
  if (node_slots > r.remaining() || rel_slots > r.remaining()) {
    return Status::Corruption("slot count too large");
  }

  GQL_RETURN_IF_ERROR(DecodeInterner(&r, &g.labels_));
  GQL_RETURN_IF_ERROR(DecodeInterner(&r, &g.types_));
  GQL_RETURN_IF_ERROR(DecodeInterner(&r, &g.keys_));

  for (uint64_t i = 0; i < node_slots; ++i) {
    PropertyGraph::NodeRecord* rec =
        g.AppendSlot(&g.node_pages_, &g.node_slots_);
    GQL_ASSIGN_OR_RETURN(uint8_t deleted, r.U8());
    rec->deleted = deleted != 0;
    GQL_ASSIGN_OR_RETURN(uint32_t nl, r.U32());
    if (nl > r.remaining()) return Status::Corruption("label set too large");
    rec->labels.reserve(nl);
    for (uint32_t j = 0; j < nl; ++j) {
      GQL_ASSIGN_OR_RETURN(uint32_t s, r.U32());
      rec->labels.push_back(s);
    }
    GQL_RETURN_IF_ERROR(DecodeProps(&r, &rec->props));
    GQL_ASSIGN_OR_RETURN(uint32_t nout, r.U32());
    if (nout > r.remaining()) return Status::Corruption("adjacency too large");
    rec->out.reserve(nout);
    for (uint32_t j = 0; j < nout; ++j) {
      GQL_ASSIGN_OR_RETURN(uint64_t id, r.U64());
      rec->out.push_back(RelId{id});
    }
    GQL_ASSIGN_OR_RETURN(uint32_t nin, r.U32());
    if (nin > r.remaining()) return Status::Corruption("adjacency too large");
    rec->in.reserve(nin);
    for (uint32_t j = 0; j < nin; ++j) {
      GQL_ASSIGN_OR_RETURN(uint64_t id, r.U64());
      rec->in.push_back(RelId{id});
    }
  }
  for (uint64_t i = 0; i < rel_slots; ++i) {
    PropertyGraph::RelRecord* rec = g.AppendSlot(&g.rel_pages_, &g.rel_slots_);
    GQL_ASSIGN_OR_RETURN(uint8_t deleted, r.U8());
    rec->deleted = deleted != 0;
    GQL_ASSIGN_OR_RETURN(uint64_t src, r.U64());
    GQL_ASSIGN_OR_RETURN(uint64_t tgt, r.U64());
    rec->src = NodeId{src};
    rec->tgt = NodeId{tgt};
    GQL_ASSIGN_OR_RETURN(rec->type, r.U32());
    GQL_RETURN_IF_ERROR(DecodeProps(&r, &rec->props));
  }

  {
    GQL_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    if (n > r.remaining()) return Status::Corruption("label index too large");
    for (uint32_t i = 0; i < n; ++i) {
      GQL_ASSIGN_OR_RETURN(uint32_t s, r.U32());
      GQL_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      if (count > r.remaining()) {
        return Status::Corruption("posting list too large");
      }
      auto posting = std::make_shared<std::vector<NodeId>>();
      posting->reserve(count);
      for (uint32_t j = 0; j < count; ++j) {
        GQL_ASSIGN_OR_RETURN(uint64_t id, r.U64());
        posting->push_back(NodeId{id});
      }
      auto& entry = g.label_index_[s];
      entry.payload = std::move(posting);
      entry.epoch = g.epoch_;
    }
  }

  auto decode_sym_count = [&r](std::unordered_map<SymbolId, size_t>* m)
      -> Status {
    GQL_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    if (n > r.remaining()) return Status::Corruption("count map too large");
    for (uint32_t i = 0; i < n; ++i) {
      GQL_ASSIGN_OR_RETURN(uint32_t s, r.U32());
      GQL_ASSIGN_OR_RETURN(uint64_t count, r.U64());
      (*m)[s] = count;
    }
    return Status::OK();
  };
  GQL_RETURN_IF_ERROR(decode_sym_count(&g.label_counts_));
  GQL_RETURN_IF_ERROR(decode_sym_count(&g.type_counts_));
  auto decode_pair_count = [&r](std::unordered_map<uint64_t, size_t>* m)
      -> Status {
    GQL_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    if (n > r.remaining()) return Status::Corruption("count map too large");
    for (uint32_t i = 0; i < n; ++i) {
      GQL_ASSIGN_OR_RETURN(uint64_t k, r.U64());
      GQL_ASSIGN_OR_RETURN(uint64_t count, r.U64());
      (*m)[k] = count;
    }
    return Status::OK();
  };
  GQL_RETURN_IF_ERROR(decode_pair_count(&g.label_type_out_counts_));
  GQL_RETURN_IF_ERROR(decode_pair_count(&g.label_type_in_counts_));
  {
    GQL_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    if (n > r.remaining()) return Status::Corruption("degree stats too large");
    for (uint32_t i = 0; i < n; ++i) {
      GQL_ASSIGN_OR_RETURN(uint32_t s, r.U32());
      PropertyGraph::TypeDegreeStats& ds = g.type_degree_stats_[s];
      GQL_ASSIGN_OR_RETURN(uint64_t srcs, r.U64());
      GQL_ASSIGN_OR_RETURN(uint64_t tgts, r.U64());
      ds.distinct_sources = srcs;
      ds.distinct_targets = tgts;
    }
  }
  auto decode_ndv =
      [&r](std::unordered_map<SymbolId, PropertyGraph::KmvSketch>* m)
      -> Status {
    GQL_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    if (n > r.remaining()) return Status::Corruption("NDV map too large");
    for (uint32_t i = 0; i < n; ++i) {
      GQL_ASSIGN_OR_RETURN(uint32_t s, r.U32());
      GQL_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      if (count > r.remaining()) {
        return Status::Corruption("NDV sketch too large");
      }
      auto& sketch = (*m)[s];
      sketch.mins.reserve(count);
      for (uint32_t j = 0; j < count; ++j) {
        GQL_ASSIGN_OR_RETURN(uint64_t h, r.U64());
        sketch.mins.push_back(h);
      }
    }
    return Status::OK();
  };
  GQL_RETURN_IF_ERROR(decode_ndv(&g.node_ndv_));
  GQL_RETURN_IF_ERROR(decode_ndv(&g.rel_ndv_));

  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in checkpoint body");
  }
  if (g.node_slots_ != node_slots || g.rel_slots_ != rel_slots) {
    return Status::Corruption("slot count mismatch after decode");
  }
  return out;
}

SymbolId StorageInternals::InternLabel(PropertyGraph* g, std::string_view s) {
  return g->labels_.Intern(s);
}
SymbolId StorageInternals::InternType(PropertyGraph* g, std::string_view s) {
  return g->types_.Intern(s);
}
SymbolId StorageInternals::InternKey(PropertyGraph* g, std::string_view s) {
  return g->keys_.Intern(s);
}

Status WriteCheckpointFile(const std::string& path, const PropertyGraph& g,
                           uint64_t last_lsn) {
  std::string body;
  StorageInternals::EncodeGraph(g, last_lsn, &body);
  std::string file(kCkptMagic);
  BinaryWriter w(&file);
  w.PutU32(kCkptVersion);
  w.PutU32(Crc32c(body));
  w.PutU64(body.size());
  file += body;
  return AtomicWriteFile(path, file);
}

Result<RecoveredGraph> ReadCheckpointFile(const std::string& path) {
  GQL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  constexpr size_t kHeader = 8 + 4 + 4 + 8;
  if (data.size() < kHeader ||
      std::string_view(data).substr(0, kCkptMagic.size()) != kCkptMagic) {
    return Status::Corruption("not a checkpoint file: " + path);
  }
  BinaryReader header(std::string_view(data).substr(kCkptMagic.size(), 16));
  GQL_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kCkptVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version) + " in " + path);
  }
  GQL_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
  GQL_ASSIGN_OR_RETURN(uint64_t body_len, header.U64());
  if (data.size() != kHeader + body_len) {
    return Status::Corruption("checkpoint size mismatch: " + path);
  }
  std::string_view body = std::string_view(data).substr(kHeader);
  if (Crc32c(body) != crc) {
    return Status::Corruption("checkpoint CRC mismatch: " + path);
  }
  Result<RecoveredGraph> decoded = StorageInternals::DecodeGraph(body);
  if (!decoded.ok()) {
    return Status::Corruption("checkpoint " + path +
                              " failed to decode: " +
                              decoded.status().message());
  }
  return decoded;
}

}  // namespace gqlite
