// Storage layer: WAL format (framing, CRC, torn tails), checkpoint
// round-trips, and the Database durability contract (commit / rollback
// / reopen / checkpoint / close) — the crash model of the SIGMOD'18
// engine's persistence layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/graph/graph_io.h"
#include "src/storage/checkpoint.h"
#include "src/storage/storage_engine.h"
#include "src/storage/wal.h"

namespace gqlite {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory under the gtest temp root; wiped up-front so
// reruns never see a previous run's files (names are fixed — the
// determinism lint bans clocks/entropy in tests).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqlite_storage_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(fs::file_size(path));
}

// Truncates / corrupts raw log bytes to simulate crashes and bit rot.
void TruncateFile(const std::string& path, uint64_t size) {
  fs::resize_file(path, size);
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

WalBatch MakeBatch(uint64_t lsn) {
  WalBatch batch;
  batch.lsn = lsn;
  WalOp label;
  label.type = WalOpType::kInternLabel;
  label.id = 1;
  label.name = "Person";
  batch.ops.push_back(label);
  WalOp node;
  node.type = WalOpType::kCreateNode;
  node.id = lsn - 1;  // fresh-graph node ids: batch n creates node n-1
  node.labels = {"Person"};
  node.props = {{"name", Value::String("n")},
                {"age", Value::Int(static_cast<int64_t>(lsn))},
                {"score", Value::Float(2.5)},
                {"active", Value::Bool(true)},
                {"missing", Value::Null()}};
  batch.ops.push_back(node);
  return batch;
}

Database MustOpen(const std::string& dir) {
  auto opened = Database::Open(dir);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(*opened);
}

int64_t CountNodes(Database& db) {
  auto r = db.Execute("MATCH (n) RETURN count(n) AS c");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->table.rows()[0][0].AsInt();
}

// ---- WAL format units ----------------------------------------------------

constexpr uint64_t kWalHeaderBytes = 12;  // magic "GQLWAL1\n" + u32 version

TEST(WalFormat, EmptyLogIsHeaderOnly) {
  std::string dir = FreshDir("wal_empty");
  ASSERT_TRUE(fs::create_directories(dir));
  auto writer = WalWriter::Open(WalPath(dir));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->batches.empty());
  EXPECT_EQ(contents->file_bytes, kWalHeaderBytes);
  EXPECT_EQ(contents->valid_bytes, kWalHeaderBytes);
}

TEST(WalFormat, MissingLogReadsAsEmpty) {
  std::string dir = FreshDir("wal_missing");
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->batches.empty());
  EXPECT_EQ(contents->file_bytes, 0u);
  EXPECT_EQ(contents->valid_bytes, 0u);
}

TEST(WalFormat, PayloadCodecRoundTrip) {
  WalBatch batch = MakeBatch(7);
  WalOp rel;
  rel.type = WalOpType::kCreateRelationship;
  rel.id = 0;
  rel.src = 7;
  rel.tgt = 7;
  rel.name = "KNOWS";
  rel.props = {{"since", Value::Int(1833)}};
  batch.ops.push_back(rel);

  std::string payload;
  EncodeWalBatchPayload(batch, &payload);
  auto decoded = DecodeWalBatchPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->lsn, 7u);
  ASSERT_EQ(decoded->ops.size(), batch.ops.size());
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    EXPECT_EQ(decoded->ops[i].type, batch.ops[i].type);
    EXPECT_EQ(decoded->ops[i].id, batch.ops[i].id);
    EXPECT_EQ(decoded->ops[i].name, batch.ops[i].name);
    EXPECT_EQ(decoded->ops[i].labels, batch.ops[i].labels);
    ASSERT_EQ(decoded->ops[i].props.size(), batch.ops[i].props.size());
    for (size_t p = 0; p < batch.ops[i].props.size(); ++p) {
      EXPECT_EQ(decoded->ops[i].props[p].first, batch.ops[i].props[p].first);
      EXPECT_EQ(decoded->ops[i].props[p].second.ToString(),
                batch.ops[i].props[p].second.ToString());
    }
  }
}

TEST(WalFormat, AppendThenReadBack) {
  std::string dir = FreshDir("wal_roundtrip");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->batches.size(), 3u);
  EXPECT_EQ(contents->batches[0].lsn, 1u);
  EXPECT_EQ(contents->batches[1].lsn, 2u);
  EXPECT_EQ(contents->batches[2].lsn, 3u);
  EXPECT_EQ(contents->valid_bytes, contents->file_bytes);
}

TEST(WalFormat, TornFinalFrameDropsOnlyTheTail) {
  std::string dir = FreshDir("wal_torn");
  ASSERT_TRUE(fs::create_directories(dir));
  uint64_t after_two = 0;
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    after_two = (*writer)->size();
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  // Cut the last frame mid-payload: a crash during the third commit's
  // write. Every prefix length inside the frame must recover the first
  // two batches.
  uint64_t full = FileSize(WalPath(dir));
  for (uint64_t cut = after_two + 1; cut < full; cut += 3) {
    TruncateFile(WalPath(dir), cut);
    auto contents = ReadWal(WalPath(dir));
    ASSERT_TRUE(contents.ok()) << "cut=" << cut;
    ASSERT_EQ(contents->batches.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(contents->valid_bytes, after_two) << "cut=" << cut;
    EXPECT_EQ(contents->file_bytes, cut) << "cut=" << cut;
  }
}

TEST(WalFormat, CrcCorruptionMidLogDropsFromThere) {
  std::string dir = FreshDir("wal_crc");
  ASSERT_TRUE(fs::create_directories(dir));
  uint64_t after_one = 0;
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    after_one = (*writer)->size();
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  // Flip one payload byte in the second frame (past its 8-byte frame
  // header): batches 2 AND 3 must both be dropped — a valid-looking
  // frame after a corrupt one could be a ghost of a previous log
  // generation, so recovery never skips over corruption.
  FlipByte(WalPath(dir), after_one + 9);
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->batches.size(), 1u);
  EXPECT_EQ(contents->batches[0].lsn, 1u);
  EXPECT_EQ(contents->valid_bytes, after_one);
  EXPECT_GT(contents->file_bytes, contents->valid_bytes);
}

TEST(WalFormat, BadMagicIsCorruption) {
  std::string dir = FreshDir("wal_magic");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    const char bytes[] = "NOTAWAL!\x01\x00\x00\x00extra";
    std::ofstream f(WalPath(dir), std::ios::binary);
    f.write(bytes, sizeof(bytes) - 1);
  }
  auto contents = ReadWal(WalPath(dir));
  EXPECT_FALSE(contents.ok());
}

TEST(WalFormat, ReplayIsIdempotentAcrossReads) {
  std::string dir = FreshDir("wal_idem");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
  }
  // Applying the same log to two fresh graphs yields identical state;
  // re-applying an already-applied batch to the first graph fails
  // loudly (ids would not match) instead of silently double-applying.
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  PropertyGraph a, b;
  for (const WalBatch& batch : contents->batches) {
    ASSERT_TRUE(ApplyWalBatch(&a, batch).ok());
    ASSERT_TRUE(ApplyWalBatch(&b, batch).ok());
  }
  EXPECT_EQ(DumpToCypher(a), DumpToCypher(b));
  EXPECT_FALSE(ApplyWalBatch(&a, contents->batches[0]).ok());
}

// ---- Checkpoint round-trip -----------------------------------------------

TEST(Checkpoint, BodyRoundTripPreservesGraphAndInterners) {
  PropertyGraph g;
  NodeId ada = g.CreateNode({"Person"}, {{"name", Value::String("Ada")},
                                         {"born", Value::Int(1815)}});
  NodeId chas = g.CreateNode({"Person", "Author"},
                             {{"name", Value::String("Charles")}});
  NodeId math = g.CreateNode({"Topic"}, {{"name", Value::String("Math")}});
  ASSERT_TRUE(g.CreateRelationship(ada, chas, "KNOWS",
                                   {{"since", Value::Int(1833)}})
                  .ok());
  ASSERT_TRUE(g.CreateRelationship(ada, math, "LIKES").ok());
  // Tombstones and label churn must survive verbatim too.
  NodeId doomed = g.CreateNode({"Person"});
  ASSERT_TRUE(g.DetachDeleteNode(doomed).ok());
  g.AddLabel(chas, "Emeritus");
  g.RemoveLabel(chas, "Author");

  std::string body;
  StorageInternals::EncodeGraph(g, /*last_lsn=*/42, &body);
  auto recovered = StorageInternals::DecodeGraph(body);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_lsn, 42u);
  const PropertyGraph& r = *recovered->graph;

  EXPECT_EQ(DumpToCypher(r), DumpToCypher(g));
  EXPECT_EQ(r.NumNodes(), g.NumNodes());
  EXPECT_EQ(r.NumNodeSlots(), g.NumNodeSlots());  // tombstone kept
  EXPECT_EQ(r.NumRels(), g.NumRels());
  EXPECT_EQ(r.stats_version(), g.stats_version());

  // Interners are bit-identical: same ids, same strings, in order —
  // including "Author", which no live node references anymore.
  ASSERT_EQ(r.labels().size(), g.labels().size());
  for (SymbolId id = 1; id < g.labels().size(); ++id) {
    EXPECT_EQ(r.labels().ToString(id), g.labels().ToString(id));
  }
  ASSERT_EQ(r.types().size(), g.types().size());
  for (SymbolId id = 1; id < g.types().size(); ++id) {
    EXPECT_EQ(r.types().ToString(id), g.types().ToString(id));
  }
  ASSERT_EQ(r.keys().size(), g.keys().size());
  for (SymbolId id = 1; id < g.keys().size(); ++id) {
    EXPECT_EQ(r.keys().ToString(id), g.keys().ToString(id));
  }

  // Statistics survive: label counts drive the planner's estimates.
  EXPECT_EQ(r.LabelCounts(), g.LabelCounts());
}

TEST(Checkpoint, RoundTripAcrossLeafBoundaries) {
  // Three leaves (4,096 slots each) of nodes and relationships, with
  // tombstones on both sides of page and leaf boundaries: decoding and
  // re-encoding reproduces the checkpoint byte for byte.
  constexpr size_t kSlots = 10000;
  PropertyGraph g;
  for (size_t i = 0; i < kSlots; ++i) {
    g.CreateNode({"P"}, {{"id", Value::Int(static_cast<int64_t>(i))}});
  }
  const PropertyList w = {{"w", Value::Int(1)}};
  for (size_t i = 0; i < kSlots; ++i) {
    NodeId to{(i * 7 + 1) % kSlots};
    ASSERT_TRUE(g.CreateRelationship(NodeId{i}, to, "T", w).ok());
  }
  for (size_t id : {size_t{63}, size_t{64}, size_t{4095}, size_t{4096}}) {
    ASSERT_TRUE(g.DeleteRelationship(RelId{id}).ok());
  }
  for (size_t id : {size_t{0}, size_t{4097}, kSlots - 1}) {
    ASSERT_TRUE(g.DetachDeleteNode(NodeId{id}).ok());
  }

  std::string body;
  StorageInternals::EncodeGraph(g, /*last_lsn=*/7, &body);
  auto recovered = StorageInternals::DecodeGraph(body);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const PropertyGraph& r = *recovered->graph;
  EXPECT_EQ(r.NumNodeSlots(), kSlots);
  EXPECT_EQ(r.NumRelSlots(), kSlots);
  EXPECT_FALSE(r.IsNodeAlive(NodeId{4097}));
  EXPECT_FALSE(r.IsRelAlive(RelId{4096}));
  std::string again;
  StorageInternals::EncodeGraph(r, /*last_lsn=*/7, &again);
  EXPECT_TRUE(again == body);  // megabytes: no diff printed
  EXPECT_TRUE(DumpToCypher(r) == DumpToCypher(g));
}

TEST(Checkpoint, FileRoundTripAndCorruptionDetection) {
  std::string dir = FreshDir("ckp_file");
  ASSERT_TRUE(fs::create_directories(dir));
  std::string path = dir + "/checkpoint.gql";

  PropertyGraph g;
  g.CreateNode({"A"}, {{"x", Value::Int(1)}});
  ASSERT_TRUE(WriteCheckpointFile(path, g, /*last_lsn=*/9).ok());

  auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->last_lsn, 9u);
  EXPECT_EQ(DumpToCypher(*loaded->graph), DumpToCypher(g));

  EXPECT_FALSE(ReadCheckpointFile(dir + "/nope.gql").ok());  // NotFound

  // Any flipped body byte must fail the CRC, not load garbage.
  FlipByte(path, FileSize(path) - 3);
  EXPECT_FALSE(ReadCheckpointFile(path).ok());
}

// ---- Database durability contract ----------------------------------------

TEST(Durability, CommitSurvivesReopen) {
  std::string dir = FreshDir("db_reopen");
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 0);
    ASSERT_TRUE(db.Execute("CREATE (:Person {name: 'Ada', born: 1815})"
                           "-[:KNOWS {since: 1833}]->"
                           "(:Person {name: 'Charles'})")
                    .ok());
    ASSERT_TRUE(db.Execute("MATCH (p {name: 'Ada'}) SET p.famous = true")
                    .ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 2);
  auto r = db.Execute(
      "MATCH (a)-[k:KNOWS]->(b) "
      "RETURN a.name, a.famous, k.since, b.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.rows().size(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].ToString(), "'Ada'");
  EXPECT_EQ(r->table.rows()[0][1].ToString(), "true");
  EXPECT_EQ(r->table.rows()[0][2].ToString(), "1833");
  EXPECT_EQ(r->table.rows()[0][3].ToString(), "'Charles'");
}

TEST(Durability, DoubleReopenIsIdempotent) {
  std::string dir = FreshDir("db_idem");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A {x: 1})-[:R]->(:B {y: 2})").ok());
    ASSERT_TRUE(db.Execute("MATCH (b:B) SET b.y = 3").ok());
  }
  std::string first, second;
  {
    Database db = MustOpen(dir);
    first = DumpToCypher(*db.Snapshot());
  }
  {
    Database db = MustOpen(dir);
    second = DumpToCypher(*db.Snapshot());
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Durability, RollbackIsNotPersisted) {
  std::string dir = FreshDir("db_rollback");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:Keep)").ok());
    auto session = db.CreateSession();
    ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
    ASSERT_TRUE(session->Execute("CREATE (:Gone), (:Gone)").ok());
    ASSERT_TRUE(session->Rollback().ok());
    // A later committed transaction still lands in the log.
    ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
    ASSERT_TRUE(session->Execute("CREATE (:Keep)").ok());
    ASSERT_TRUE(session->Commit().ok());
  }
  Database db = MustOpen(dir);
  auto r = db.Execute("MATCH (n:Keep) RETURN count(n) AS c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 2);
  auto gone = db.Execute("MATCH (n:Gone) RETURN count(n) AS c");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->table.rows()[0][0].AsInt(), 0);
}

TEST(Durability, CheckpointTruncatesWalAndReopens) {
  std::string dir = FreshDir("db_ckpt");
  {
    Database db = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Execute("CREATE (:N {i: " + std::to_string(i) + "})")
                      .ok());
    }
    EXPECT_GT(FileSize(WalPath(dir)), kWalHeaderBytes);
    ASSERT_TRUE(db.Checkpoint().ok());
    // Checkpoint folds the log into the baseline and truncates it.
    EXPECT_EQ(FileSize(WalPath(dir)), kWalHeaderBytes);
    EXPECT_TRUE(fs::exists(dir + "/checkpoint.gql"));
    // Post-checkpoint commits append to the fresh log.
    ASSERT_TRUE(db.Execute("CREATE (:N {i: 10})").ok());
    EXPECT_GT(FileSize(WalPath(dir)), kWalHeaderBytes);
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 11);
}

TEST(Durability, CheckpointOfThePreviousVersionIsRefused) {
  // Version 1 checkpoints carried per-type degree histograms that
  // version 2 dropped; no reader for the old layout exists, so a
  // database checkpointed by version 1 must fail to open, not misread.
  std::string dir = FreshDir("db_ckpt_v1");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A)-[:R]->(:B)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string path = dir + "/checkpoint.gql";
  {
    // The u32 version follows the 8-byte magic, little-endian. The CRC
    // covers only the body, so this is a well-formed version-1 header.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8);
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, 4);
  }
  auto loaded = ReadCheckpointFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << loaded.status().ToString();
  auto reopened = Database::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(Durability, PlanEstimatesSurviveCheckpointAndReopen) {
  std::string dir = FreshDir("db_estimates");
  const std::string query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.born < 1800 "
      "RETURN a.name";
  std::string before;
  {
    Database db = MustOpen(dir);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          db.Execute("CREATE (:Person {name: 'p" + std::to_string(i) +
                     "', born: " + std::to_string(1780 + i) + "})")
              .ok());
    }
    ASSERT_TRUE(db.Execute("MATCH (a:Person {name: 'p0'}), "
                           "(b:Person {name: 'p1'}) "
                           "CREATE (a)-[:KNOWS]->(b)")
                    .ok());
    auto plan = db.Explain(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    before = *plan;
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // The reopened planner must see the same statistics (degree
  // histograms, NDV sketches, label counts) and print the same plan
  // with the same cardinality estimates.
  Database db = MustOpen(dir);
  auto plan = db.Explain(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(*plan, before);
}

TEST(Durability, TornWalTailIsDiscardedOnOpen) {
  std::string dir = FreshDir("db_torn");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A {x: 1})").ok());
    ASSERT_TRUE(db.Execute("CREATE (:B {x: 2})").ok());
  }
  // Chop bytes off the final frame: the B commit is torn away, A
  // survives, and the next open both recovers and resumes appending.
  TruncateFile(WalPath(dir), FileSize(WalPath(dir)) - 5);
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 1);
    ASSERT_TRUE(db.Execute("CREATE (:C {x: 3})").ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 2);
  EXPECT_TRUE(db.Execute("MATCH (c:C) RETURN c").ok());
}

TEST(Durability, TornWalHeaderIsRewrittenDurably) {
  std::string dir = FreshDir("db_torn_header");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  }
  // Power loss during the very first header write leaves a log shorter
  // than the 12-byte header: every frame is gone, recovery starts from
  // an empty graph, rewrites the header — and must KEEP it when it
  // truncates the torn remainder (a headerless log would swallow later
  // commits silently until the next open failed with Corruption).
  TruncateFile(WalPath(dir), 5);
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 0);
    ASSERT_TRUE(db.Execute("CREATE (:K)").ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 1);
}

TEST(Durability, MoveAssignFlushesTheReplacedDatabase) {
  std::string dir = FreshDir("db_move_assign");
  std::string other_dir = FreshDir("db_move_assign_other");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:Moved)").ok());
    // Move-assignment closes the database being replaced; the handle
    // then serves (and writes to) the other one.
    Database other = MustOpen(other_dir);
    db = std::move(other);
    ASSERT_TRUE(db.Execute("CREATE (:Other), (:Other)").ok());
    EXPECT_EQ(CountNodes(db), 2);
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 1);
  auto moved = db.Execute("MATCH (m:Moved) RETURN count(m) AS c");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->table.rows()[0][0].AsInt(), 1);
  Database other = MustOpen(other_dir);
  EXPECT_EQ(CountNodes(other), 2);
}

TEST(Durability, CloseFlushesAndRejectsLaterWrites) {
  std::string dir = FreshDir("db_close");
  Database db = MustOpen(dir);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  ASSERT_TRUE(db.Close().ok());
  ASSERT_TRUE(db.Close().ok());  // idempotent
  // Reads of the in-memory state still work; writes are refused.
  EXPECT_EQ(CountNodes(db), 1);
  EXPECT_FALSE(db.Execute("CREATE (:B)").ok());

  Database reopened = MustOpen(dir);
  EXPECT_EQ(CountNodes(reopened), 1);
}

TEST(Durability, InMemoryDatabaseWritesNoFiles) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Execute("CREATE (:A)").ok());
  EXPECT_TRUE(db->Checkpoint().ok());  // documented no-op
  EXPECT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace gqlite
