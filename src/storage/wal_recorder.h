#ifndef GQLITE_STORAGE_WAL_RECORDER_H_
#define GQLITE_STORAGE_WAL_RECORDER_H_

#include <cstddef>
#include <vector>

#include "src/graph/property_graph.h"
#include "src/graph/write_observer.h"
#include "src/storage/wal.h"

namespace gqlite {

/// Accumulates a live graph's primitive mutations into a WAL op batch.
/// The engine attaches one recorder to its live graph and harvests the
/// pending ops at each commit (TakePending), appending them as one
/// durable WAL frame before the commit is acknowledged.
///
/// Interner tracking: before recording an op, the recorder emits one
/// kIntern* op for every symbol the graph interned since the last
/// harvest. This covers symbols the op's own strings would re-intern
/// anyway AND symbols interned by calls that logged nothing (a null
/// write to an absent key interns its property key but changes no
/// data) — so replay reconstructs the interners bit-identically and the
/// id-verification in ApplyWalBatch stays exact.
///
/// Not thread-safe on its own: the engine's single-writer transaction
/// slot serializes all mutations and harvests.
class WalRecorder : public GraphWriteObserver {
 public:
  /// Starts observing `g` from its current interner state.
  explicit WalRecorder(const PropertyGraph* g) { Rebind(g); }

  /// Re-targets the recorder after the engine swapped its live graph
  /// (transaction rollback restores a clone): pending ops are dropped
  /// and interner watermarks snap to the restored graph's state.
  void Rebind(const PropertyGraph* g);

  /// True when ops (or unsynced interner additions) await a harvest.
  bool HasPending() const;

  /// Returns the accumulated batch (interner syncs included) and clears
  /// it. The caller owns making it durable.
  std::vector<WalOp> TakePending();

  // GraphWriteObserver:
  void OnCreateNode(NodeId id, const std::vector<std::string>& labels,
                    const PropertyList& props) override;
  void OnCreateRelationship(RelId id, NodeId src, NodeId tgt,
                            std::string_view type,
                            const PropertyList& props) override;
  void OnAddLabel(NodeId n, std::string_view label) override;
  void OnRemoveLabel(NodeId n, std::string_view label) override;
  void OnSetNodeProperty(NodeId n, std::string_view key,
                         const Value& v) override;
  void OnSetRelProperty(RelId r, std::string_view key,
                        const Value& v) override;
  void OnDeleteRelationship(RelId r) override;
  void OnDeleteNode(NodeId n) override;

 private:
  /// Emits kIntern* ops for symbols added since the watermarks.
  void SyncInterners();

  const PropertyGraph* graph_ = nullptr;
  size_t labels_seen_ = 0;
  size_t types_seen_ = 0;
  size_t keys_seen_ = 0;
  std::vector<WalOp> pending_;
};

}  // namespace gqlite

#endif  // GQLITE_STORAGE_WAL_RECORDER_H_
