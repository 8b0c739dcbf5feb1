#ifndef GQLITE_STORAGE_STORAGE_ENGINE_H_
#define GQLITE_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/graph/property_graph.h"
#include "src/storage/wal.h"

namespace gqlite {

/// The persistence boundary PropertyGraph's COW paged slot store plugs
/// into. The in-memory engine is one implementation (everything a
/// no-op); the durable engine backs a directory with a write-ahead log
/// and checkpoint files. CypherEngine drives it at exactly three
/// points: Recover() at open, AppendCommit() inside the commit path
/// (before the commit is acknowledged), and WriteCheckpoint() on
/// demand.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  /// True when commits must be appended to this engine before being
  /// acknowledged (i.e. the engine attaches a WalRecorder).
  virtual bool durable() const = 0;

  /// Produces the starting graph: a fresh one for in-memory, the
  /// latest checkpoint plus the replayed WAL tail for durable storage.
  /// Called once, before any AppendCommit.
  virtual Result<std::shared_ptr<PropertyGraph>> Recover() = 0;

  /// Durably appends one committed batch; on OK the batch survives any
  /// crash. An empty batch is a no-op.
  virtual Status AppendCommit(std::vector<WalOp> ops) = 0;

  /// Serializes `snapshot` (the frozen committed state, whose WAL
  /// position is "everything appended so far") as the new recovery
  /// baseline and drops the now-redundant log.
  virtual Status WriteCheckpoint(const PropertyGraph& snapshot) = 0;

  virtual Status Close() = 0;
};

/// No durability: Recover hands out the starting graph (a fresh one when
/// none was given); appends and checkpoints succeed without doing
/// anything.
class InMemoryStorageEngine : public StorageEngine {
 public:
  explicit InMemoryStorageEngine(std::shared_ptr<PropertyGraph> g = nullptr)
      : initial_(std::move(g)) {}

  bool durable() const override { return false; }
  Result<std::shared_ptr<PropertyGraph>> Recover() override {
    if (initial_ == nullptr) return std::make_shared<PropertyGraph>();
    return std::move(initial_);
  }
  Status AppendCommit(std::vector<WalOp> /*ops*/) override {
    return Status::OK();
  }
  Status WriteCheckpoint(const PropertyGraph& /*snapshot*/) override {
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 private:
  /// Handed to the engine by the one Recover() call.
  std::shared_ptr<PropertyGraph> initial_;
};

/// Directory-backed durability:
///
///   <dir>/checkpoint.gql  — latest checkpoint (atomic-replace)
///   <dir>/wal.log         — WAL tail since that checkpoint
///
/// Open() performs recovery eagerly: load the checkpoint if present,
/// replay WAL batches with lsn above the checkpoint's, truncate any
/// torn/corrupt tail the crashed writer left, and resume appending
/// after the last valid frame.
class DurableStorageEngine : public StorageEngine {
 public:
  static Result<std::unique_ptr<DurableStorageEngine>> Open(
      const std::string& dir);

  bool durable() const override { return true; }
  Result<std::shared_ptr<PropertyGraph>> Recover() override;
  Status AppendCommit(std::vector<WalOp> ops) override;
  Status WriteCheckpoint(const PropertyGraph& snapshot) override;
  Status Close() override;

  /// LSN of the last durable batch (checkpointed or appended).
  uint64_t last_lsn() const { return last_lsn_; }
  const std::string& dir() const { return dir_; }

 private:
  DurableStorageEngine(std::string dir, std::unique_ptr<WalWriter> wal,
                       std::shared_ptr<PropertyGraph> recovered,
                       uint64_t last_lsn)
      : dir_(std::move(dir)),
        wal_(std::move(wal)),
        recovered_(std::move(recovered)),
        last_lsn_(last_lsn) {}

  std::string dir_;
  std::unique_ptr<WalWriter> wal_;
  /// Held between Open() and Recover(); handed to the engine exactly
  /// once.
  std::shared_ptr<PropertyGraph> recovered_;
  uint64_t last_lsn_ = 0;
};

}  // namespace gqlite

#endif  // GQLITE_STORAGE_STORAGE_ENGINE_H_
