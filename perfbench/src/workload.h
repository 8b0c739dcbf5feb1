// The benchmark's three workloads: seeded graphs, seeded operation
// sequences, and the closed-loop runner that drives one Database through
// its public API and checks every answer.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/speed.h"
#include "perfbench/src/trace.h"
#include "src/core/database.h"

namespace perfbench {

enum class WorkloadKind { kInteractiveText, kIngestDurable, kAnalytic2w };

std::optional<WorkloadKind> ParseWorkload(std::string_view name);

/// splitmix64: the whole sequence is fixed by the seed, on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// What a statement's answer must look like; -1 means "not checked".
struct Expect {
  int64_t min_rows = -1;
  int64_t max_rows = -1;
  int64_t nodes_created = -1;
  int64_t nodes_deleted = -1;
  int64_t rels_created = -1;
  int64_t properties_set = -1;
};

/// One statement: either text with inline literals (prepared < 0) or an
/// index into the workload's prepared statements plus its parameters.
struct Stmt {
  int prepared = -1;
  std::string text;
  gqlite::ValueMap params;
  Expect expect;
};

enum class OpType : uint8_t { kRead, kWrite };

/// One operation: a read statement, or a write transaction whose
/// statements run between Session::Begin(kWrite) and Commit.
struct Op {
  OpType type = OpType::kRead;
  int cls = 0;  // read: index into Workload::read_classes; write: its kind
  std::vector<Stmt> stmts;
  int64_t score_delta = 0;  // what the write adds to sum(Person.score)
};

/// The seeded initial graph, loaded through one write transaction.
/// Person i has id i and LIVES_IN City (i % cities); KNOWS edges join
/// random Persons. Persons with id >= persons - churn_pool are the
/// initial churn queue of interactive-text and are never read or SET.
struct GraphSpec {
  int64_t persons = 0;
  int64_t cities = 0;
  int64_t knows = 0;
  int64_t churn_pool = 0;
  bool random_scores = false;  // else every score starts at 0
};

struct Workload {
  std::string name;
  GraphSpec graph;
  bool durable = false;
  size_t num_threads = 1;
  /// Set-ups per untraced run (setup_s is their median), spread over the
  /// run: enough that they take one to four seconds in all.
  int setups = 1;
  /// Database::Checkpoint() after every this many commits (0 = never).
  int64_t checkpoint_every = 0;
  std::vector<std::string> prepared_texts;
  std::vector<std::string> read_classes;
  std::vector<Op> ops;
  uint64_t graph_seed = 0;
  int64_t initial_score_sum = 0;  // sum(p.score) of the initial graph
};

/// Builds a workload's graph spec and operation sequence. The operation
/// count is fixed by `seconds`, not by the clock, so two builds of the
/// program do identical work.
Workload MakeWorkload(WorkloadKind kind, uint64_t seed, int seconds);

/// Human-readable form of an operation (for determinism checks).
std::string Render(const Op& op);

/// Loads the workload's initial graph into `db` through a Session write
/// transaction that mutates session->graph().
gqlite::Status LoadGraph(gqlite::Database* db, const Workload& w);

/// Opens the database a workload runs on: durable under `dir` or in
/// memory, with the workload's worker count.
gqlite::Result<gqlite::Database> OpenDatabase(const Workload& w,
                                              size_t num_threads,
                                              const std::string& dir);

/// Everything one pass over the operation sequence measured.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double elapsed_s = 0;
  std::vector<double> read_us;   // latency of each successful read
  std::vector<double> write_us;  // Begin(kWrite)..Commit of each success
  std::vector<double> commit_us;  // the Session::Commit part of write_us
  /// The run is cut into windows of about kProbeEveryNs of operation
  /// time, each followed by one SpeedProbe run (and, when durable, one
  /// SyncProbe run) outside the clock: per window, the probes' times; per
  /// sample above, its window.
  std::vector<double> probe_ns;
  std::vector<double> sync_probe_ns;  // durable workloads only
  std::vector<double> window_ns;  // operation time of each window
  std::vector<uint32_t> read_window;
  std::vector<uint32_t> write_window;
  /// Sums of the update counters and score deltas of acknowledged
  /// transactions.
  gqlite::UpdateStats acked;
  int64_t acked_score_delta = 0;
  /// On a multi-worker database: (operation index, answer) of each read
  /// that ran before the first commit, to compare against a 1-worker
  /// database over the same graph.
  std::vector<std::pair<size_t, gqlite::Table>> early_reads;
  /// Read latency summed per read class.
  std::vector<double> class_us;
  // Traced passes only.
  int64_t result_rows = 0;
  std::vector<double> first_read_after_commit_us;
  int64_t wal_bytes = 0;    // WAL growth between checkpoints ...
  int64_t wal_commits = 0;  // ... over this many commits
};

/// Operation time between two runs of the speed probe.
inline constexpr int64_t kProbeEveryNs = 20'000'000;
/// Speed factors use the median of this many probes on each side.
inline constexpr size_t kProbeRadius = 2;

/// A run's times at the reference speed (see speed.h): every window's
/// operation time and every latency scaled by its window's speed factor.
/// When the run has sync probes, the Commit part of each write (WAL
/// append plus fdatasync) is scaled by the disk's factor instead.
struct ScaledTimes {
  double elapsed_s = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
};
ScaledTimes ScaleToReference(const RunResult& r);

/// Drives one database through a workload's operations, one at a time,
/// waiting for each answer (a closed loop with one client).
class Runner {
 public:
  /// `data_dir` is the durable database's directory ("" in memory).
  Runner(gqlite::Database* db, const Workload& w, Tracer* tracer,
         std::string data_dir);

  /// Prepares the workload's statements and runs the first read of each
  /// read class once, so plans are cached before timing starts.
  gqlite::Status Prepare();
  /// Runs every operation and returns what was measured; every
  /// operation fails unless Prepare() succeeded. `between`, when given,
  /// runs `between_count` times at even intervals of the sequence, outside
  /// every operation and with the timed phase's clock stopped.
  RunResult RunAll(const std::function<void()>& between = {},
                   int between_count = 0);

 private:
  /// Runs one operation; false when it failed (error or wrong answer).
  bool RunOp(const Op& op, RunResult* out);
  gqlite::Result<gqlite::QueryResult> ExecuteRead(const Stmt& s);
  gqlite::Result<gqlite::QueryResult> ExecuteWrite(const Stmt& s);
  bool RunRead(const Op& op, RunResult* out);
  bool RunWrite(const Op& op, RunResult* out);
  void MaybeCheckpoint(RunResult* out);

  gqlite::Database* db_;
  const Workload& w_;
  Tracer* tracer_;
  std::string data_dir_;
  std::unique_ptr<SyncProbe> sync_probe_;  // durable workloads only
  std::unique_ptr<gqlite::Session> session_;
  std::vector<gqlite::PreparedQuery> prepared_;
  bool ready_ = false;
  int64_t commits_ = 0;
  bool read_since_commit_ = true;
  gqlite::Table last_read_;
  int64_t wal_base_bytes_ = 0;  // WAL size after the last checkpoint
  int64_t wal_base_commits_ = 0;
};

/// Counts (nodes, rels, sum of Person scores) through queries.
struct GraphCounts {
  int64_t nodes = -1;
  int64_t rels = -1;
  int64_t persons = -1;
  int64_t score_sum = -1;
  bool operator==(const GraphCounts&) const = default;
};
gqlite::Result<GraphCounts> CountGraph(gqlite::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
