#include "src/storage/wal_recorder.h"

#include <utility>

namespace gqlite {

void WalRecorder::Rebind(const PropertyGraph* g) {
  graph_ = g;
  labels_seen_ = g->labels().size();
  types_seen_ = g->types().size();
  keys_seen_ = g->keys().size();
  pending_.clear();
}

bool WalRecorder::HasPending() const {
  return !pending_.empty() || labels_seen_ < graph_->labels().size() ||
         types_seen_ < graph_->types().size() ||
         keys_seen_ < graph_->keys().size();
}

std::vector<WalOp> WalRecorder::TakePending() {
  // Catch symbols interned since the last recorded op (including ones
  // interned by data-neutral calls after it).
  SyncInterners();
  std::vector<WalOp> out = std::move(pending_);
  pending_.clear();
  return out;
}

void WalRecorder::SyncInterners() {
  auto sync = [this](const StringInterner& interner, size_t* seen,
                     WalOpType type) {
    for (size_t id = *seen; id < interner.size(); ++id) {
      WalOp op;
      op.type = type;
      op.id = id;
      op.name = interner.ToString(static_cast<SymbolId>(id));
      pending_.push_back(std::move(op));
    }
    *seen = interner.size();
  };
  sync(graph_->labels(), &labels_seen_, WalOpType::kInternLabel);
  sync(graph_->types(), &types_seen_, WalOpType::kInternType);
  sync(graph_->keys(), &keys_seen_, WalOpType::kInternKey);
}

void WalRecorder::OnCreateNode(NodeId id,
                               const std::vector<std::string>& labels,
                               const PropertyList& props) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kCreateNode;
  op.id = id.id;
  op.labels = labels;
  op.props = props;
  pending_.push_back(std::move(op));
}

void WalRecorder::OnCreateRelationship(RelId id, NodeId src, NodeId tgt,
                                       std::string_view type,
                                       const PropertyList& props) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kCreateRelationship;
  op.id = id.id;
  op.src = src.id;
  op.tgt = tgt.id;
  op.name = std::string(type);
  op.props = props;
  pending_.push_back(std::move(op));
}

void WalRecorder::OnAddLabel(NodeId n, std::string_view label) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kAddLabel;
  op.id = n.id;
  op.name = std::string(label);
  pending_.push_back(std::move(op));
}

void WalRecorder::OnRemoveLabel(NodeId n, std::string_view label) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kRemoveLabel;
  op.id = n.id;
  op.name = std::string(label);
  pending_.push_back(std::move(op));
}

void WalRecorder::OnSetNodeProperty(NodeId n, std::string_view key,
                                    const Value& v) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kSetNodeProperty;
  op.id = n.id;
  op.name = std::string(key);
  op.value = v;
  pending_.push_back(std::move(op));
}

void WalRecorder::OnSetRelProperty(RelId r, std::string_view key,
                                   const Value& v) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kSetRelProperty;
  op.id = r.id;
  op.name = std::string(key);
  op.value = v;
  pending_.push_back(std::move(op));
}

void WalRecorder::OnDeleteRelationship(RelId r) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kDeleteRelationship;
  op.id = r.id;
  pending_.push_back(std::move(op));
}

void WalRecorder::OnDeleteNode(NodeId n) {
  SyncInterners();
  WalOp op;
  op.type = WalOpType::kDeleteNode;
  op.id = n.id;
  pending_.push_back(std::move(op));
}

}  // namespace gqlite
