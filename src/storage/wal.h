#ifndef GQLITE_STORAGE_WAL_H_
#define GQLITE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/graph/property_graph.h"
#include "src/storage/io_file.h"
#include "src/value/value.h"

namespace gqlite {

/// ## WAL file format
///
/// A single append-only file:
///
///   header:  8-byte magic "GQLWAL1\n", u32 format version (1)
///   frames:  [u32 payload_len][u32 crc32c(payload)][payload]*
///   payload: [u64 lsn][u32 op_count][op]*
///
/// One frame per committed transaction. The writer appends the frame and
/// fdatasyncs BEFORE the commit is acknowledged; recovery accepts the
/// longest prefix of frames whose length fits and whose CRC matches,
/// and discards everything after the first torn/corrupt frame — which
/// is exactly the possibly-partial last write of a crashed process.
///
/// LSNs are assigned contiguously per batch. A checkpoint records the
/// last LSN it contains; replay skips batches at or below it, which
/// makes replay idempotent (applying checkpoint + the same WAL twice
/// yields the same graph).

/// Logical operation kinds. Intern ops pre-assign symbol ids so a
/// recovered graph's interners are bit-identical to the writer's
/// (including symbols interned by writes that changed nothing); entity
/// ops carry strings, never symbol ids, so each op is self-describing.
enum class WalOpType : uint8_t {
  kInternLabel = 1,
  kInternType = 2,
  kInternKey = 3,
  kCreateNode = 4,
  kCreateRelationship = 5,
  kAddLabel = 6,
  kRemoveLabel = 7,
  kSetNodeProperty = 8,
  kSetRelProperty = 9,
  kDeleteRelationship = 10,
  kDeleteNode = 11,
};

/// One logical operation. A single flat struct (rather than a variant)
/// keeps the codec and the applier simple; unused fields stay empty.
struct WalOp {
  WalOpType type{};
  /// Entity id the mutation produced/targeted; for intern ops, the
  /// SymbolId the writer assigned (replay verifies it re-assigns the
  /// same one).
  uint64_t id = 0;
  uint64_t src = 0;  // kCreateRelationship
  uint64_t tgt = 0;  // kCreateRelationship
  /// Label / relationship type / property key / interned string.
  std::string name;
  std::vector<std::string> labels;  // kCreateNode
  PropertyList props;               // kCreateNode, kCreateRelationship
  Value value;                      // kSet*Property (null == removal)
};

/// One committed record batch.
struct WalBatch {
  uint64_t lsn = 0;
  std::vector<WalOp> ops;
};

/// Appends framed batches to the log. Single-writer (the engine's
/// transaction slot serializes commits).
class WalWriter {
 public:
  /// Opens or creates the log; a fresh file gets the header written and
  /// synced immediately. Honors GQLITE_WAL_CRASH_AFTER_BYTES (see
  /// Append).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path);

  /// Serializes, appends and fdatasyncs one batch; on return the batch
  /// is durable.
  ///
  /// On an I/O failure (partial write, failed fdatasync — ENOSPC, EIO)
  /// the writer truncates the file back to the pre-append size so no
  /// torn frame bytes linger mid-log; if even that restore fails, the
  /// writer poisons itself and every later Append returns the poison
  /// status. Either way the log never accepts a new frame after
  /// garbage — recovery stops at the first bad frame, so a frame behind
  /// torn bytes would be an acknowledged-then-lost commit.
  ///
  /// Crash injection for recovery tests: when the environment variable
  /// GQLITE_WAL_CRASH_AFTER_BYTES is set, the writer only persists log
  /// bytes up to that absolute file offset — a frame crossing the limit
  /// is written as a prefix, synced, and the process _exit(137)s,
  /// simulating power loss at an arbitrary point of a commit's write.
  Status Append(const WalBatch& batch);

  /// Drops every frame (after a checkpoint made them redundant),
  /// keeping the header. On success this also clears an Append poison:
  /// the checkpoint holds everything and the log is a clean header
  /// again.
  Status TruncateToHeader();
  /// Drops a corrupt/torn tail found by ReadWal (recovery path).
  /// Clamped to never drop the header — ReadWal reports valid_bytes=0
  /// for a file shorter than the header, but by the time recovery calls
  /// this, Open has already (re)written and synced a fresh header that
  /// must survive (a headerless log makes every later commit unreadable
  /// at the next recovery).
  Status TruncateTo(uint64_t size);

  uint64_t size() const { return file_->size(); }

 private:
  explicit WalWriter(std::unique_ptr<AppendFile> file, int64_t crash_after)
      : file_(std::move(file)), crash_after_bytes_(crash_after) {}

  /// Appends `data` and fdatasyncs, honoring crash injection; on
  /// failure restores the pre-append file size (or poisons the writer
  /// when the restore fails too).
  Status AppendDurably(std::string_view data);

  std::unique_ptr<AppendFile> file_;
  /// Absolute file offset beyond which writes crash the process; < 0
  /// means injection is off.
  int64_t crash_after_bytes_ = -1;
  /// Non-OK once an append failure left the file in an unknown state;
  /// every later Append fails with this until a checkpoint resets the
  /// log (TruncateToHeader).
  Status poison_;
};

/// Everything a log file yields at recovery.
struct WalContents {
  std::vector<WalBatch> batches;
  /// Bytes of the valid prefix (header + intact frames). When less than
  /// `file_bytes`, the tail after it is torn or corrupt and must be
  /// truncated before appending resumes.
  uint64_t file_bytes = 0;
  uint64_t valid_bytes = 0;
};

/// Reads and validates the log. A missing file reads as empty contents;
/// a torn or CRC-corrupt tail is dropped (reported via valid_bytes <
/// file_bytes), matching the crash contract. Corruption is only
/// returned for a file that cannot be a WAL at all (bad magic/version).
Result<WalContents> ReadWal(const std::string& path);

/// Replays one batch against `graph` by invoking the same primitive
/// mutators the original writer used, verifying that every assigned
/// node/relationship/symbol id matches the logged one (the append-only
/// id invariant). Any mismatch or mutator failure is Corruption: the
/// log does not match the graph state it is being applied to.
Status ApplyWalBatch(PropertyGraph* graph, const WalBatch& batch);

// Codec entry points, exposed for the format unit tests.
void EncodeWalBatchPayload(const WalBatch& batch, std::string* out);
Result<WalBatch> DecodeWalBatchPayload(std::string_view payload);

}  // namespace gqlite

#endif  // GQLITE_STORAGE_WAL_H_
