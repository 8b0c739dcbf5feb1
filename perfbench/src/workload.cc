#include "perfbench/src/workload.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <system_error>
#include <utility>

namespace perfbench {

using gqlite::Database;
using gqlite::QueryResult;
using gqlite::Result;
using gqlite::Status;
using gqlite::Value;

namespace {

// Operation budgets: ops = max(kMinOps, rate * seconds). The rates were
// set so one run measures about `seconds` on a 4-core x86-64 host; the
// minimums give every reported percentile at least ten samples beyond it
// (p99 needs 1,000 reads and 1,000 writes).
constexpr int64_t kInteractiveOpsPerSecond = 3000;
constexpr int64_t kInteractiveMinOps = 6000;
constexpr int64_t kIngestOpsPerSecond = 3000;
constexpr int64_t kIngestMinOps = 6000;
constexpr int64_t kAnalyticReadsPerSecond = 90;
constexpr int64_t kAnalyticMinReads = 1050;
constexpr int64_t kAnalyticRefreshWrites = 10000;

Value Int(int64_t v) { return Value::Int(v); }
std::string Str(int64_t v) { return std::to_string(v); }

Expect Rows(int64_t lo, int64_t hi) {
  Expect e;
  e.min_rows = lo;
  e.max_rows = hi;
  return e;
}

Stmt Prepared(int index, gqlite::ValueMap params, Expect expect) {
  Stmt s;
  s.prepared = index;
  s.params = std::move(params);
  s.expect = expect;
  return s;
}

Stmt Text(std::string text, Expect expect) {
  Stmt s;
  s.text = std::move(text);
  s.expect = expect;
  return s;
}

Op ReadOp(int cls, Stmt s) {
  Op op;
  op.type = OpType::kRead;
  op.cls = cls;
  op.stmts.push_back(std::move(s));
  return op;
}

Op WriteOp(int cls, std::vector<Stmt> stmts, int64_t score_delta) {
  Op op;
  op.type = OpType::kWrite;
  op.cls = cls;
  op.stmts = std::move(stmts);
  op.score_delta = score_delta;
  return op;
}

int64_t Age(Rng* rng) { return 18 + rng->Below(63); }

// interactive-text: every statement is text with inline literals, so
// every operation pays the frontend; churn and SETs invalidate cached
// plans. Churn is 70 % of the writes, so the write median falls inside
// the churn class rather than between the two classes.
void MakeInteractive(Workload* w, Rng* rng, int seconds) {
  w->graph = {2000, 50, 16000, 50, false};
  w->setups = 201;
  w->read_classes = {"point", "one_hop", "city_topk"};
  const int64_t stable = w->graph.persons - w->graph.churn_pool;
  std::deque<int64_t> churn;
  for (int64_t id = stable; id < w->graph.persons; ++id) churn.push_back(id);
  int64_t next_id = w->graph.persons;
  const int64_t n =
      std::max(kInteractiveMinOps, kInteractiveOpsPerSecond * seconds);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t r = rng->Below(100);
    if (r < 40) {
      w->ops.push_back(ReadOp(
          0, Text("MATCH (p:Person {id: " + Str(rng->Below(stable)) +
                      "}) RETURN p.name AS name, p.score AS score",
                  Rows(1, 1))));
    } else if (r < 65) {
      w->ops.push_back(ReadOp(
          1, Text("MATCH (p:Person {id: " + Str(rng->Below(stable)) +
                      "})-[:KNOWS]->(f:Person) RETURN f.id AS id, "
                      "f.score AS score ORDER BY score DESC, id LIMIT 5",
                  Rows(0, 5))));
    } else if (r < 80) {
      w->ops.push_back(ReadOp(
          2, Text("MATCH (c:City {id: " + Str(rng->Below(w->graph.cities)) +
                      "})<-[:LIVES_IN]-(p:Person)-[:KNOWS]->(f:Person) "
                      "RETURN f.age AS age, count(*) AS n "
                      "ORDER BY n DESC, age LIMIT 5",
                  Rows(0, 5))));
    } else if (r < 86) {
      Expect set;
      set.properties_set = 1;
      w->ops.push_back(WriteOp(
          0, {Text("MATCH (p:Person {id: " + Str(rng->Below(stable)) +
                       "}) SET p.score = p.score + 1",
                   set)},
          1));
    } else {
      const int64_t id = next_id++;
      Expect created;
      created.nodes_created = 1;
      created.rels_created = 1;
      Expect deleted;
      deleted.nodes_deleted = 1;
      w->ops.push_back(WriteOp(
          1, {Text("MATCH (c:City {id: " + Str(rng->Below(w->graph.cities)) +
                       "}) CREATE (:Person {id: " + Str(id) + ", name: 'p" +
                       Str(id) + "', age: " + Str(Age(rng)) +
                       ", score: 0})-[:LIVES_IN]->(c)",
                   created),
              Text("MATCH (p:Person {id: " + Str(churn.front()) +
                       "}) DETACH DELETE p",
                   deleted)},
          0));
      churn.pop_front();
      churn.push_back(id);
    }
  }
}

// Prepared write statements shared by ingest-durable and analytic-2w.
constexpr const char* kCreatePerson =
    "MATCH (c:City {id: $city}) CREATE (:Person {id: $id, age: $age, "
    "score: $score})-[:LIVES_IN]->(c)";
constexpr const char* kSetScore =
    "MATCH (c:City {id: $city})<-[:LIVES_IN]-(p:Person {id: $id}) "
    "SET p.score = p.score + 1";

// Appends one City-anchored write transaction: a CREATE of a Person with
// its LIVES_IN edge (30 %), or a SET of an existing Person's score (70 %).
// Unequal shares put the write median inside the SET class, not on the
// boundary between two classes, where it would jump between them from run
// to run. `people` holds (id, city) of every Person so far.
void AddCityWrite(Workload* w, Rng* rng, int create_stmt, int set_stmt,
                  std::vector<std::pair<int64_t, int64_t>>* people) {
  if (rng->Below(10) < 3) {
    const int64_t id = static_cast<int64_t>(people->size());
    const int64_t city = rng->Below(w->graph.cities);
    const int64_t age = Age(rng);
    const int64_t score = rng->Below(100);
    Expect e;
    e.nodes_created = 1;
    e.rels_created = 1;
    w->ops.push_back(WriteOp(
        0, {Prepared(create_stmt,
                     {{"city", Int(city)}, {"id", Int(id)},
                      {"age", Int(age)}, {"score", Int(score)}},
                     e)},
        score));
    people->emplace_back(id, city);
  } else {
    const auto& [id, city] = (*people)[rng->Below(
        static_cast<int64_t>(people->size()))];
    Expect e;
    e.properties_set = 1;
    w->ops.push_back(WriteOp(
        1, {Prepared(set_stmt, {{"city", Int(city)}, {"id", Int(id)}}, e)},
        1));
  }
}

std::vector<std::pair<int64_t, int64_t>> InitialPeople(const GraphSpec& g) {
  std::vector<std::pair<int64_t, int64_t>> people;
  for (int64_t i = 0; i < g.persons; ++i) people.emplace_back(i, i % g.cities);
  return people;
}

// ingest-durable: prepared, City-anchored writes on a durable database;
// no frontend and cheap matching leave the write path dominant.
void MakeIngest(Workload* w, Rng* rng, int seconds) {
  w->graph = {20000, 200, 0, 0, true};
  w->setups = 31;
  w->durable = true;
  w->checkpoint_every = 4000;
  w->prepared_texts = {kCreatePerson, kSetScore,
                       "MATCH (c:City {id: $city})<-[:LIVES_IN]-(p:Person) "
                       "RETURN count(p) AS n, sum(p.score) AS total"};
  w->read_classes = {"city_summary"};
  auto people = InitialPeople(w->graph);
  const int64_t n = std::max(kIngestMinOps, kIngestOpsPerSecond * seconds);
  for (int64_t i = 0; i < n; ++i) {
    if (rng->Below(100) < 80) {
      AddCityWrite(w, rng, 0, 1, &people);
    } else {
      w->ops.push_back(ReadOp(
          0, Prepared(2, {{"city", Int(rng->Below(w->graph.cities))}},
                      Rows(1, 1))));
    }
  }
}

// analytic-2w: long prepared scans into pipeline breakers on 2 workers,
// one class per parallel merge kind in a fixed rotation; a refresh batch
// of writes closes the run.
void MakeAnalytic(Workload* w, Rng* rng, int seconds) {
  w->graph = {20000, 200, 160000, 0, true};
  w->setups = 31;
  w->num_threads = 2;
  w->prepared_texts = {
      // Grouped aggregate with top-k: partitioned aggregation merge.
      "MATCH (p:Person) WHERE p.score >= $min RETURN p.age AS age, "
      "count(*) AS n, sum(p.score) AS total ORDER BY total DESC, age "
      "LIMIT 10",
      // Filter with ORDER BY ... LIMIT: parallel merge sort.
      "MATCH (p:Person) WHERE p.age >= $lo AND p.age < $hi "
      "RETURN p.id AS id, p.score AS score ORDER BY score DESC, id LIMIT 20",
      // Grouped count of distinct friends: partitioned DISTINCT merge.
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WHERE a.age >= $lo AND a.age < $hi "
      "WITH DISTINCT b.age AS age, b.id AS friend "
      "RETURN age, count(*) AS friends ORDER BY age",
      kCreatePerson, kSetScore};
  w->read_classes = {"group_topk", "filter_sort", "distinct_friends"};
  int64_t reads = std::max(kAnalyticMinReads, kAnalyticReadsPerSecond * seconds);
  reads -= reads % 3;
  for (int64_t i = 0; i < reads; ++i) {
    switch (i % 3) {
      case 0:
        w->ops.push_back(
            ReadOp(0, Prepared(0, {{"min", Int(rng->Below(50))}}, Rows(0, 10))));
        break;
      case 1: {
        const int64_t lo = 18 + rng->Below(55);
        w->ops.push_back(ReadOp(
            1, Prepared(1, {{"lo", Int(lo)}, {"hi", Int(lo + 8)}}, Rows(0, 20))));
        break;
      }
      default: {
        const int64_t lo = 18 + rng->Below(60);
        w->ops.push_back(ReadOp(
            2, Prepared(2, {{"lo", Int(lo)}, {"hi", Int(lo + 4)}}, Rows(0, 63))));
        break;
      }
    }
  }
  auto people = InitialPeople(w->graph);
  for (int64_t i = 0; i < kAnalyticRefreshWrites; ++i) {
    AddCityWrite(w, rng, 3, 4, &people);
  }
}

std::string RenderParams(const gqlite::ValueMap& params) {
  std::string out;
  for (const auto& [k, v] : params) out += " $" + k + "=" + v.ToString();
  return out;
}

// True when `r` meets every checked field of `e`.
bool Matches(const Expect& e, const QueryResult& r) {
  const auto rows = static_cast<int64_t>(r.table.NumRows());
  auto ok = [](int64_t want, int64_t got) { return want < 0 || want == got; };
  return (e.min_rows < 0 || rows >= e.min_rows) &&
         (e.max_rows < 0 || rows <= e.max_rows) &&
         ok(e.nodes_created, r.stats.nodes_created) &&
         ok(e.nodes_deleted, r.stats.nodes_deleted) &&
         ok(e.rels_created, r.stats.rels_created) &&
         ok(e.properties_set, r.stats.properties_set);
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  if (name == "interactive-text") return WorkloadKind::kInteractiveText;
  if (name == "ingest-durable") return WorkloadKind::kIngestDurable;
  if (name == "analytic-2w") return WorkloadKind::kAnalytic2w;
  return std::nullopt;
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed, int seconds) {
  Workload w;
  Rng rng(seed);
  w.graph_seed = rng.Next();
  switch (kind) {
    case WorkloadKind::kInteractiveText:
      w.name = "interactive-text";
      MakeInteractive(&w, &rng, seconds);
      break;
    case WorkloadKind::kIngestDurable:
      w.name = "ingest-durable";
      MakeIngest(&w, &rng, seconds);
      break;
    case WorkloadKind::kAnalytic2w:
      w.name = "analytic-2w";
      MakeAnalytic(&w, &rng, seconds);
      break;
  }
  // The initial scores are drawn in LoadGraph from graph_seed; replay
  // that draw here so the end-of-run check knows their sum.
  if (w.graph.random_scores) {
    Rng g(w.graph_seed);
    for (int64_t i = 0; i < w.graph.persons; ++i) {
      (void)Age(&g);
      w.initial_score_sum += g.Below(100);
    }
  }
  return w;
}

std::string Render(const Op& op) {
  std::string out = op.type == OpType::kRead ? "read" : "write";
  out += "#" + std::to_string(op.cls);
  for (const Stmt& s : op.stmts) {
    out += s.prepared >= 0 ? " [prepared " + std::to_string(s.prepared) + "]"
                           : " [" + s.text + "]";
    out += RenderParams(s.params);
  }
  return out;
}

Status LoadGraph(Database* db, const Workload& w) {
  std::unique_ptr<gqlite::Session> session = db->CreateSession();
  GQL_RETURN_IF_ERROR(session->Begin(gqlite::TxnMode::kWrite));
  gqlite::PropertyGraph& g = *session->graph();
  const GraphSpec& spec = w.graph;
  std::vector<gqlite::NodeId> cities;
  for (int64_t c = 0; c < spec.cities; ++c) {
    cities.push_back(g.CreateNode({"City"}, {{"id", Int(c)}}));
  }
  Rng rng(w.graph_seed);
  std::vector<gqlite::NodeId> persons;
  for (int64_t i = 0; i < spec.persons; ++i) {
    const int64_t age = Age(&rng);
    const int64_t score = spec.random_scores ? rng.Below(100) : 0;
    persons.push_back(g.CreateNode(
        {"Person"}, {{"id", Int(i)},
                     {"name", Value::String("p" + std::to_string(i))},
                     {"age", Int(age)},
                     {"score", Int(score)}}));
    GQL_RETURN_IF_ERROR(
        g.CreateRelationship(persons.back(), cities[i % spec.cities],
                             "LIVES_IN")
            .status());
  }
  for (int64_t k = 0; k < spec.knows; ++k) {
    const int64_t a = rng.Below(spec.persons);
    int64_t b = rng.Below(spec.persons - 1);
    if (b >= a) ++b;  // no self loops
    GQL_RETURN_IF_ERROR(
        g.CreateRelationship(persons[a], persons[b], "KNOWS").status());
  }
  return session->Commit();
}

Result<Database> OpenDatabase(const Workload& w, size_t num_threads,
                              const std::string& dir) {
  gqlite::EngineOptions opts;
  opts.num_threads = num_threads;
  if (!w.durable) return Database::OpenInMemory(opts);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return Database::Open(dir, opts);
}

Result<GraphCounts> CountGraph(Database* db) {
  GraphCounts c;
  auto one = [&](std::string_view q, size_t col) -> Result<int64_t> {
    GQL_ASSIGN_OR_RETURN(QueryResult r, db->Execute(q));
    if (r.table.NumRows() != 1 || !r.table.rows()[0][col].is_int()) {
      return Status::Internal(std::string("unexpected answer to ") +
                              std::string(q));
    }
    return r.table.rows()[0][col].AsInt();
  };
  GQL_ASSIGN_OR_RETURN(c.nodes, one("MATCH (n) RETURN count(n)", 0));
  GQL_ASSIGN_OR_RETURN(c.rels, one("MATCH ()-[r]->() RETURN count(r)", 0));
  constexpr const char* kPersons =
      "MATCH (p:Person) RETURN count(p) AS n, sum(p.score) AS s";
  GQL_ASSIGN_OR_RETURN(c.persons, one(kPersons, 0));
  GQL_ASSIGN_OR_RETURN(c.score_sum, one(kPersons, 1));
  return c;
}

// ------------------------------------------------------------------ Runner

Runner::Runner(Database* db, const Workload& w, Tracer* tracer,
               std::string data_dir)
    : db_(db),
      w_(w),
      tracer_(tracer),
      data_dir_(std::move(data_dir)),
      sync_probe_(w.durable ? std::make_unique<SyncProbe>(data_dir_ +
                                                          ".sync-probe")
                            : nullptr),
      session_(db->CreateSession()) {}

Status Runner::Prepare() {
  tracer_->set_op(-1);
  prepared_.clear();
  for (const std::string& text : w_.prepared_texts) {
    ScopedSpan span(tracer_, "frontend.prepare");
    GQL_ASSIGN_OR_RETURN(gqlite::PreparedQuery p, db_->Prepare(text));
    prepared_.push_back(std::move(p));
  }
  // The first read of each class fills the plan cache.
  std::vector<bool> seen(w_.read_classes.size());
  for (const Op& op : w_.ops) {
    if (op.type != OpType::kRead || seen[op.cls]) continue;
    seen[op.cls] = true;
    const Stmt& s = op.stmts.front();
    GQL_RETURN_IF_ERROR(
        (s.prepared >= 0 ? db_->Execute(prepared_[s.prepared], s.params)
                         : db_->Execute(s.text))
            .status());
  }
  ready_ = true;
  return Status::OK();
}

RunResult Runner::RunAll(const std::function<void()>& between,
                         int between_count) {
  RunResult out;
  out.class_us.assign(w_.read_classes.size(), 0.0);
  if (tracer_->enabled() && w_.durable) {
    std::error_code ec;
    wal_base_bytes_ = static_cast<int64_t>(
        std::filesystem::file_size(data_dir_ + "/wal.log", ec));
  }
  const size_t n = w_.ops.size();
  const size_t calls = between ? static_cast<size_t>(between_count) : 0;
  size_t called = 0;
  int64_t paused_ns = 0;
  int64_t window_paused_ns = 0;
  const int64_t start = NowNs();
  int64_t window_start = start;
  // Ends the current window: its operation time, then the probe runs.
  auto close_window = [&] {
    const int64_t end = NowNs();
    out.window_ns.push_back(
        static_cast<double>(end - window_start - window_paused_ns));
    out.probe_ns.push_back(static_cast<double>(ProcessSpeedProbe().RunNs()));
    if (sync_probe_) {
      const int64_t ns = sync_probe_->RunNs();
      if (ns < 0) ++out.failed;  // a disk that cannot sync fails the run
      out.sync_probe_ns.push_back(static_cast<double>(ns));
    }
    window_paused_ns = 0;
    window_start = NowNs();
    paused_ns += window_start - end;
  };
  for (size_t i = 0; i < n; ++i) {
    while (called < calls && i >= (called + 1) * n / (calls + 1)) {
      const int64_t pause = NowNs();
      between();
      ++called;
      paused_ns += NowNs() - pause;
      window_paused_ns += NowNs() - pause;
    }
    tracer_->set_op(static_cast<int64_t>(i));
    ++out.attempted;
    if (!ready_ || !RunOp(w_.ops[i], &out)) {
      ++out.failed;
    } else if (w_.ops[i].type == OpType::kRead && commits_ == 0 &&
               w_.num_threads > 1) {
      out.early_reads.emplace_back(i, std::move(last_read_));
    }
    if (NowNs() - window_start - window_paused_ns >= kProbeEveryNs) {
      close_window();
    }
  }
  close_window();
  out.elapsed_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  return out;
}

ScaledTimes ScaleToReference(const RunResult& r) {
  const std::vector<double> cpu =
      SpeedFactors(r.probe_ns, kReferenceProbeNs, kProbeRadius);
  const std::vector<double> disk =
      r.sync_probe_ns.empty()
          ? cpu
          : SpeedFactors(r.sync_probe_ns, kReferenceSyncNs, kProbeRadius);
  ScaledTimes t;
  double ns = 0;
  for (size_t w = 0; w < r.window_ns.size(); ++w) ns += r.window_ns[w] * cpu[w];
  for (size_t i = 0; i < r.commit_us.size(); ++i) {
    const size_t w = r.write_window[i];
    ns += r.commit_us[i] * 1e3 * (disk[w] - cpu[w]);
  }
  t.elapsed_s = ns / 1e9;
  for (size_t i = 0; i < r.read_us.size(); ++i) {
    t.read_us.push_back(r.read_us[i] * cpu[r.read_window[i]]);
  }
  for (size_t i = 0; i < r.write_us.size(); ++i) {
    const size_t w = r.write_window[i];
    const double commit = r.commit_us[i];
    t.write_us.push_back((r.write_us[i] - commit) * cpu[w] + commit * disk[w]);
  }
  return t;
}

bool Runner::RunOp(const Op& op, RunResult* out) {
  ScopedSpan span(tracer_, "bench.op");
  return op.type == OpType::kRead ? RunRead(op, out) : RunWrite(op, out);
}

Result<QueryResult> Runner::ExecuteRead(const Stmt& s) {
  if (s.prepared >= 0) {
    ScopedSpan span(tracer_, "exec.execute");
    return db_->Execute(prepared_[s.prepared], s.params);
  }
  if (!tracer_->enabled()) return db_->Execute(s.text);
  // Traced: Execute(text) is exactly Prepare(text) + Execute(prepared).
  Result<gqlite::PreparedQuery> p = [&] {
    ScopedSpan span(tracer_, "frontend.prepare");
    return db_->Prepare(s.text);
  }();
  if (!p.ok()) return p.status();
  ScopedSpan span(tracer_, "exec.execute");
  return db_->Execute(*p);
}

Result<QueryResult> Runner::ExecuteWrite(const Stmt& s) {
  if (s.prepared >= 0) {
    ScopedSpan span(tracer_, "update.execute");
    return session_->Execute(prepared_[s.prepared], s.params);
  }
  if (!tracer_->enabled()) return session_->Execute(s.text);
  Result<gqlite::PreparedQuery> p = [&] {
    ScopedSpan span(tracer_, "frontend.prepare");
    return db_->Prepare(s.text);
  }();
  if (!p.ok()) return p.status();
  ScopedSpan span(tracer_, "update.execute");
  return session_->Execute(*p);
}

bool Runner::RunRead(const Op& op, RunResult* out) {
  const Stmt& s = op.stmts.front();
  const int64_t start = NowNs();
  Result<QueryResult> r = ExecuteRead(s);
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  if (!r.ok() || !Matches(s.expect, *r)) return false;
  out->read_us.push_back(us);
  out->read_window.push_back(static_cast<uint32_t>(out->window_ns.size()));
  out->class_us[op.cls] += us;
  if (tracer_->enabled()) {
    out->result_rows += static_cast<int64_t>(r->table.NumRows());
    if (!read_since_commit_) out->first_read_after_commit_us.push_back(us);
  }
  read_since_commit_ = true;
  last_read_ = std::move(r->table);
  return true;
}

bool Runner::RunWrite(const Op& op, RunResult* out) {
  const int64_t start = NowNs();
  Status st = [&] {
    ScopedSpan span(tracer_, "core.begin_write");
    return session_->Begin(gqlite::TxnMode::kWrite);
  }();
  if (!st.ok()) return false;
  gqlite::UpdateStats done;
  for (const Stmt& s : op.stmts) {
    Result<QueryResult> r = ExecuteWrite(s);
    if (!r.ok() || !Matches(s.expect, *r)) {
      (void)session_->Rollback();
      return false;
    }
    done.nodes_created += r->stats.nodes_created;
    done.nodes_deleted += r->stats.nodes_deleted;
    done.rels_created += r->stats.rels_created;
    done.rels_deleted += r->stats.rels_deleted;
    done.properties_set += r->stats.properties_set;
  }
  const int64_t commit_start = NowNs();
  {
    ScopedSpan span(tracer_, "core.commit");
    st = session_->Commit();
  }
  const int64_t end = NowNs();
  if (!st.ok()) return false;
  out->write_us.push_back(static_cast<double>(end - start) / 1e3);
  out->commit_us.push_back(static_cast<double>(end - commit_start) / 1e3);
  out->write_window.push_back(static_cast<uint32_t>(out->window_ns.size()));
  out->acked.nodes_created += done.nodes_created;
  out->acked.nodes_deleted += done.nodes_deleted;
  out->acked.rels_created += done.rels_created;
  out->acked.rels_deleted += done.rels_deleted;
  out->acked.properties_set += done.properties_set;
  out->acked_score_delta += op.score_delta;
  ++commits_;
  read_since_commit_ = false;
  MaybeCheckpoint(out);
  return true;
}

void Runner::MaybeCheckpoint(RunResult* out) {
  if (w_.checkpoint_every <= 0 || commits_ % w_.checkpoint_every != 0) return;
  if (tracer_->enabled()) {
    // WAL growth since the last checkpoint left the log at its header.
    std::error_code ec;
    const auto wal = std::filesystem::file_size(data_dir_ + "/wal.log", ec);
    if (!ec) {
      out->wal_bytes += static_cast<int64_t>(wal) - wal_base_bytes_;
      out->wal_commits += commits_ - wal_base_commits_;
    }
  }
  Status st = [&] {
    ScopedSpan span(tracer_, "storage.checkpoint");
    return db_->Checkpoint();
  }();
  if (!st.ok()) ++out->failed;
  if (tracer_->enabled()) {
    std::error_code ec;
    wal_base_bytes_ = static_cast<int64_t>(
        std::filesystem::file_size(data_dir_ + "/wal.log", ec));
    wal_base_commits_ = commits_;
  }
}

}  // namespace perfbench
