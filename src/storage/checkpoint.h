#ifndef GQLITE_STORAGE_CHECKPOINT_H_
#define GQLITE_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/interner.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/graph/property_graph.h"

namespace gqlite {

/// A graph restored from disk plus the LSN of the last WAL batch its
/// state includes (replay skips batches at or below it).
struct RecoveredGraph {
  std::shared_ptr<PropertyGraph> graph;
  uint64_t last_lsn = 0;
};

/// PropertyGraph's single serialization friend (see the friend
/// declaration in property_graph.h). Checkpoints are a verbatim dump of
/// the private state — record pages including tombstones and property
/// order, all three interners in id order, label-index postings, and
/// every statistic (distinct endpoints, label/type counts, KMV NDV
/// sketches — the sketches are insert-only and NOT derivable from live
/// records, so reloading them verbatim is what keeps cached-plan
/// estimates identical across a restart).
class StorageInternals {
 public:
  /// Appends the checkpoint body (no file header/CRC) to `*out`.
  static void EncodeGraph(const PropertyGraph& g, uint64_t last_lsn,
                          std::string* out);
  /// Inverse of EncodeGraph over exactly one body.
  static Result<RecoveredGraph> DecodeGraph(std::string_view body);

  // WAL-replay backdoors (the applier pre-interns symbols so a
  // recovered interner is bit-identical to the writer's).
  static SymbolId InternLabel(PropertyGraph* g, std::string_view s);
  static SymbolId InternType(PropertyGraph* g, std::string_view s);
  static SymbolId InternKey(PropertyGraph* g, std::string_view s);
};

/// Writes `g` (typically a frozen committed snapshot) as a checkpoint
/// file at `path` via crash-atomic replace. The file is self-validating
/// (magic, version, CRC32C over the body).
Status WriteCheckpointFile(const std::string& path, const PropertyGraph& g,
                           uint64_t last_lsn);

/// Loads and validates a checkpoint file. NotFound when absent,
/// Corruption when it fails validation.
Result<RecoveredGraph> ReadCheckpointFile(const std::string& path);

}  // namespace gqlite

#endif  // GQLITE_STORAGE_CHECKPOINT_H_
