// gqlite end-to-end benchmark.
//
//   perfbench --workload <interactive-text|ingest-durable|analytic-2w>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>] [--trace-out <file.tsv>]
//
// One application thread drives a Database through its public API and
// waits for every answer (a closed loop with one client). With --trace 0
// the run reports the end-to-end metrics; with --trace 1 it runs the
// same operations once untraced and once traced, and reports the
// per-layer metrics. End-to-end times are scaled to the reference host
// speed (speed.h). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <sys/resource.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "perfbench/src/speed.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/canonicalize.h"
#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"
#include "src/plan/planner.h"

namespace perfbench {
namespace {

using gqlite::Database;
using gqlite::Result;
using gqlite::Status;

// Latency percentiles are medians over at most this many slices of the
// run; SlicedPercentile uses fewer when a slice would have too few samples.
constexpr size_t kSlices = 50;
// Statement texts sampled for the frontend and planner timings.
constexpr size_t kSampledStatements = 300;
// Probe runs on each side of a set-up.
constexpr int kSetupProbes = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_build/data";
  std::string trace_out;
};

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    long long v = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, INT64_MAX, &v)) {
      a.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds" && ParseInt(value, 1, 600, &v)) {
      a.seconds = static_cast<int>(v);
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &v)) {
      a.trace = static_cast<int>(v);
    } else if (flag == "--data-dir") {
      a.data_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !ParseWorkload(a.workload)) return std::nullopt;
  return a;
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------ set-up/check

std::string DbDir(const Args& args, int i) {
  return args.data_dir + "/db" + std::to_string(i);
}

// Opens the workload's database and loads its graph; a durable database
// also writes its initial checkpoint.
Result<Database> SetUp(const Workload& w, const std::string& dir) {
  GQL_ASSIGN_OR_RETURN(Database db, OpenDatabase(w, w.num_threads, dir));
  GQL_RETURN_IF_ERROR(LoadGraph(&db, w));
  if (w.durable) GQL_RETURN_IF_ERROR(db.Checkpoint());
  return db;
}

// One row set as text, for comparing answers across databases.
std::string RenderRows(const gqlite::Table& table) {
  std::string out;
  for (const auto& row : table.rows()) {
    for (const gqlite::Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

GraphCounts ExpectedCounts(const Workload& w, const RunResult& r) {
  GraphCounts c;
  c.persons = w.graph.persons + r.acked.nodes_created - r.acked.nodes_deleted;
  c.nodes = c.persons + w.graph.cities;
  c.rels = w.graph.persons + w.graph.knows + r.acked.rels_created -
           r.acked.rels_deleted;
  c.score_sum = w.initial_score_sum + r.acked_score_delta;
  return c;
}

void PrintCounts(const char* what, const GraphCounts& c) {
  std::fprintf(stderr, "%s: nodes %lld, rels %lld, persons %lld, score sum %lld\n",
               what, static_cast<long long>(c.nodes),
               static_cast<long long>(c.rels),
               static_cast<long long>(c.persons),
               static_cast<long long>(c.score_sum));
}

// The end-of-run checks: the graph holds exactly what the acknowledged
// writes made of it, and a durable database reads back the same after
// Close and reopen. Returns the number of failed checks; `recover_ms`
// gets the span of the reopening Database::Open.
int64_t CheckFinalState(Database* db, const Workload& w, const RunResult& r,
                        const std::string& dir, Tracer* tracer,
                        GraphCounts* counts, double* recover_ms) {
  Result<GraphCounts> before = CountGraph(db);
  if (!before.ok() || !(*before == ExpectedCounts(w, r))) {
    std::fprintf(stderr, "final-state check failed\n");
    PrintCounts("expected", ExpectedCounts(w, r));
    if (before.ok()) PrintCounts("found", *before);
    return 1;
  }
  *counts = *before;
  if (!w.durable) return 0;
  if (!db->Close().ok()) return 1;
  const int64_t start = NowNs();
  Result<Database> reopened = [&] {
    ScopedSpan span(tracer, "storage.recover");
    return Database::Open(dir);
  }();
  *recover_ms = Seconds(start) * 1e3;
  if (!reopened.ok()) return 1;
  *db = std::move(*reopened);
  Result<GraphCounts> after = CountGraph(db);
  return after.ok() && *after == *before ? 0 : 1;
}

// Answers of the multi-worker run against a 1-worker database over the
// same graph and parameters. With `all`, every recorded read is replayed
// and timed per class into `serial_class_us`; otherwise each distinct
// statement runs once. Returns the number of operations whose answer
// differs.
int64_t CheckAgainstSerial(const Workload& w, const RunResult& r, bool all,
                           std::vector<double>* serial_class_us) {
  if (r.early_reads.empty()) return 0;
  Result<Database> db = OpenDatabase(w, 1, "");
  if (!db.ok() || !LoadGraph(&*db, w).ok()) {
    return static_cast<int64_t>(r.early_reads.size());
  }
  std::vector<gqlite::PreparedQuery> prepared;
  for (const std::string& text : w.prepared_texts) {
    Result<gqlite::PreparedQuery> p = db->Prepare(text);
    if (!p.ok()) return static_cast<int64_t>(r.early_reads.size());
    prepared.push_back(*p);
  }
  serial_class_us->assign(w.read_classes.size(), 0.0);
  std::map<std::string, std::string> serial_rows;
  int64_t mismatches = 0;
  for (const auto& [index, table] : r.early_reads) {
    const Op& op = w.ops[index];
    const Stmt& s = op.stmts.front();
    const std::string key = Render(op);
    auto it = serial_rows.find(key);
    if (all || it == serial_rows.end()) {
      const int64_t start = NowNs();
      Result<gqlite::QueryResult> res = db->Execute(prepared[s.prepared],
                                                    s.params);
      (*serial_class_us)[op.cls] += Seconds(start) * 1e6;
      it = serial_rows.insert_or_assign(
          key, res.ok() ? RenderRows(res->table) : std::string("<error>"))
               .first;
    }
    if (it->second != RenderRows(table)) ++mismatches;
  }
  return mismatches;
}

// ------------------------------------------------------------- per layer

struct FrontendTimes {
  double lex_us = 0, parse_us = 0, analyze_us = 0, canonicalize_us = 0;
  double plan_us = 0;
};

// Statement texts of the workload, in operation order: the inline-literal
// texts, or the prepared templates with their parameters.
std::vector<const Stmt*> SampleStatements(const Workload& w, bool reads_only) {
  std::vector<const Stmt*> out;
  for (const Op& op : w.ops) {
    if (reads_only && op.type != OpType::kRead) continue;
    for (const Stmt& s : op.stmts) {
      if (out.size() < kSampledStatements) out.push_back(&s);
    }
  }
  return out;
}

const std::string& TextOf(const Workload& w, const Stmt& s) {
  return s.prepared >= 0 ? w.prepared_texts[s.prepared] : s.text;
}

// Times the frontend's public functions on sampled statement texts, and
// Planner::PlanQuery on sampled reads against a Begin(kRead) snapshot,
// outside any operation.
FrontendTimes TimeFrontend(const Workload& w, Database* db) {
  FrontendTimes t;
  const auto all = SampleStatements(w, false);
  double lex = 0, parse = 0, analyze = 0, canon = 0;
  for (const Stmt* s : all) {
    const std::string& text = TextOf(w, *s);
    int64_t start = NowNs();
    (void)gqlite::Tokenize(text);
    lex += Seconds(start);
    start = NowNs();
    Result<gqlite::ast::Query> q = gqlite::ParseQuery(text);  // lexes too
    parse += Seconds(start);
    if (!q.ok()) continue;
    start = NowNs();
    (void)gqlite::Analyze(*q);
    analyze += Seconds(start);
    start = NowNs();
    gqlite::AutoParameterize(&*q);
    (void)gqlite::NormalizedQueryKey(*q);
    canon += Seconds(start);
  }
  const double n = static_cast<double>(std::max<size_t>(all.size(), 1));
  t.lex_us = lex / n * 1e6;
  t.parse_us = std::max(0.0, parse - lex) / n * 1e6;
  t.analyze_us = analyze / n * 1e6;
  t.canonicalize_us = canon / n * 1e6;

  gqlite::PlannerOptions popts;
  popts.num_threads = w.num_threads;
  std::unique_ptr<gqlite::Session> session = db->CreateSession();
  if (!session->Begin(gqlite::TxnMode::kRead).ok()) return t;
  const auto reads = SampleStatements(w, true);
  double plan = 0;
  uint64_t rand_state = 1;
  for (const Stmt* s : reads) {
    Result<gqlite::ast::Query> q = gqlite::ParseQuery(TextOf(w, *s));
    if (!q.ok() || !gqlite::Analyze(*q).ok()) continue;
    gqlite::ValueMap params = gqlite::AutoParameterize(&*q).extracted;
    for (const auto& [k, v] : s->params) params.insert_or_assign(k, v);
    gqlite::Planner planner(gqlite::CatalogRef(&db->engine().catalog()),
                            session->graph(), &params, popts, &rand_state);
    const int64_t start = NowNs();
    Result<gqlite::Plan> planned = planner.PlanQuery(*q);
    plan += Seconds(start);
    if (!planned.ok()) {
      std::fprintf(stderr, "PlanQuery: %s\n",
                   planned.status().ToString().c_str());
    }
  }
  (void)session->Commit();
  t.plan_us = plan / static_cast<double>(std::max<size_t>(reads.size(), 1)) *
              1e6;
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------------ runs

int RunEndToEnd(const Args& args, const Workload& w) {
  // The first set-up builds the database the operations run on. The others
  // run at even intervals through the timed phase, with its clock stopped,
  // so that a stall of the host in one stretch of the run moves only a few
  // of them.
  // Each set-up is scaled to the reference speed by the median of
  // kSetupProbes probe runs on either side of it.
  std::vector<double> setup_s;
  int next_dir = 0;
  bool setups_ok = true;
  SpeedProbe& probe = ProcessSpeedProbe();
  auto timed_setup = [&]() -> Result<Database> {
    std::vector<double> probe_ns;
    for (int i = 0; i < kSetupProbes; ++i) probe_ns.push_back(probe.RunNs());
    const int64_t start = NowNs();
    Result<Database> db = SetUp(w, DbDir(args, next_dir++));
    const double seconds = Seconds(start);
    for (int i = 0; i < kSetupProbes; ++i) probe_ns.push_back(probe.RunNs());
    setup_s.push_back(seconds * kReferenceProbeNs / Median(probe_ns));
    if (!db.ok()) {
      setups_ok = false;
      std::fprintf(stderr, "set-up failed: %s\n",
                   db.status().ToString().c_str());
    }
    return db;
  };
  Result<Database> first = timed_setup();
  if (!first.ok()) return 1;
  std::optional<Database> db(std::move(*first));
  auto extra_setup = [&] {
    const std::string dir = DbDir(args, next_dir);
    { (void)timed_setup(); }  // closes the extra database again
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  };
  Tracer off(false);
  const std::string dir = DbDir(args, 0);
  RunResult r;
  {
    // The runner's session must not outlive the database it came from,
    // which CheckFinalState replaces on reopen.
    Runner runner(&*db, w, &off, dir);
    (void)runner.Prepare();  // a failure fails every operation
    r = runner.RunAll(extra_setup, w.setups - 1);
  }
  if (!setups_ok) return 1;

  GraphCounts counts;
  double recover_ms = 0;
  r.failed += CheckFinalState(&*db, w, r, dir, &off, &counts, &recover_ms);
  db.reset();
  std::vector<double> serial_class_us;
  r.failed += CheckAgainstSerial(w, r, false, &serial_class_us);

  const ScaledTimes scaled = ScaleToReference(r);
  const auto read_p50 = SlicedPercentile(scaled.read_us, 50, kSlices);
  const auto write_p50 = SlicedPercentile(scaled.write_us, 50, kSlices);
  if (!read_p50 || !write_p50) {
    std::fprintf(stderr, "too few successful operations (%zu reads, %zu "
                         "writes)\n",
                 r.read_us.size(), r.write_us.size());
    return 1;
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu reads, %zu writes in %.3f s (%.3f s at "
               "the reference speed; probe median %.1f us",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               r.read_us.size(), r.write_us.size(), r.elapsed_s,
               scaled.elapsed_s, Median(r.probe_ns) / 1e3);
  if (!r.sync_probe_ns.empty()) {
    std::fprintf(stderr, ", sync probe median %.1f us",
                 Median(r.sync_probe_ns) / 1e3);
  }
  std::fprintf(stderr, ")\n");
  PrintResult(r.failed == 0, r.attempted, r.failed,
              {{"throughput_ops_s", r.attempted / scaled.elapsed_s, "1/s"},
               {"read_p50_us", *read_p50, "us"},
               {"write_p50_us", *write_p50, "us"},
               {"setup_s", Median(setup_s), "s"},
               {"rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

int RunTraced(const Args& args, const Workload& w) {
  // Untraced reference pass: trace.overhead's base, and the multi-worker
  // per-class times that exec.parallel_speedup divides into.
  double untraced_ops_s = 0;
  RunResult base;
  {
    Result<Database> db = SetUp(w, DbDir(args, 0));
    if (!db.ok()) return 1;
    Tracer off(false);
    Runner runner(&*db, w, &off, DbDir(args, 0));
    (void)runner.Prepare();  // a failure fails every operation
    base = runner.RunAll();
    untraced_ops_s = base.attempted / ScaleToReference(base).elapsed_s;
  }
  std::vector<double> serial_class_us;
  int64_t failed = base.failed;
  failed += CheckAgainstSerial(w, base, true, &serial_class_us);

  // Traced pass.
  const std::string dir = DbDir(args, 1);
  Result<Database> opened = SetUp(w, dir);
  if (!opened.ok()) return 1;
  Database db = std::move(*opened);
  Tracer tracer(true);
  gqlite::PlanCacheStats pc0, pc1;
  gqlite::BatchStats ex0, ex1;
  gqlite::CypherEngine::ParallelStats par0, par1;
  RunResult r;
  {
    Runner runner(&db, w, &tracer, dir);  // must not outlive `db`'s engine
    (void)runner.Prepare();
    pc0 = db.engine().plan_cache_stats();
    ex0 = db.engine().exec_stats();
    par0 = db.engine().parallel_stats();
    r = runner.RunAll();
    pc1 = db.engine().plan_cache_stats();
    ex1 = db.engine().exec_stats();
    par1 = db.engine().parallel_stats();
  }
  failed += r.failed;
  tracer.set_op(-1);
  const double traced_ops_s = r.attempted / ScaleToReference(r).elapsed_s;
  std::fprintf(stderr,
               "at the reference speed: untraced %.1f ops/s, traced %.1f "
               "ops/s\n",
               untraced_ops_s, traced_ops_s);

  // The first statement after the run reads a snapshot taken lazily after
  // the last commit; count it when no read followed a commit in the run.
  if (r.first_read_after_commit_us.empty()) {
    const int64_t start = NowNs();
    (void)db.Execute("MATCH (n) RETURN count(n)");
    r.first_read_after_commit_us.push_back(Seconds(start) * 1e6);
  }
  if (!w.durable) {
    // In memory Checkpoint() and "recovery" are no-ops; time the calls.
    ScopedSpan span(&tracer, "storage.checkpoint");
    (void)db.Checkpoint();
  }
  const FrontendTimes fe = TimeFrontend(w, &db);
  GraphCounts counts;
  double recover_ms = 0;
  failed += CheckFinalState(&db, w, r, dir, &tracer, &counts, &recover_ms);
  if (!w.durable) {
    const int64_t start = NowNs();
    (void)Database::OpenInMemory();
    recover_ms = Seconds(start) * 1e3;
  }
  int64_t checkpoint_bytes = 0;
  if (w.durable) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(dir + "/checkpoint.gql", ec);
    if (!ec) checkpoint_bytes = static_cast<int64_t>(size);
  }
  if (!args.trace_out.empty() && !tracer.WriteTsv(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }

  const auto layers = SelfTimeByName(tracer.spans());
  auto mean_us = [&](const char* name) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) / 1e3 /
           static_cast<double>(it->second.count);
  };
  auto total_us = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) / 1e3;
  };
  const double lookups = static_cast<double>((pc1.hits - pc0.hits) +
                                             (pc1.misses - pc0.misses));
  const double parallel_runs = static_cast<double>(par1.queries - par0.queries);
  uint64_t fallbacks = 0;
  for (const auto& [reason, n] : par1.serial_reasons) {
    auto it = par0.serial_reasons.find(reason);
    fallbacks += n - (it == par0.serial_reasons.end() ? 0 : it->second);
  }
  // Per class, 1-worker time over workload-worker time for the same reads;
  // exactly 1 on a 1-worker workload, which needs no replay.
  auto speedup = [&](int cls) {
    if (w.num_threads == 1) return 1.0;
    return Ratio(serial_class_us[cls], base.class_us[cls]);
  };
  double serial_total = 0, parallel_total = 0;
  for (size_t c = 0; c < w.read_classes.size(); ++c) {
    serial_total += w.num_threads == 1 ? base.class_us[c] : serial_class_us[c];
    parallel_total += base.class_us[c];
  }
  auto class_speedup = [&](std::string_view name) {
    for (size_t c = 0; c < w.read_classes.size(); ++c) {
      if (w.read_classes[c] == name) return speedup(static_cast<int>(c));
    }
    return 1.0;  // class not in this workload
  };
  const double ops = static_cast<double>(r.attempted);
  // Tails from the untraced pass: not gated end to end, because the
  // host's run-to-run noise moves them more than any usable bound.
  const double read_p99 = SlicedPercentile(base.read_us, 99, kSlices).value_or(0);
  const double write_p99 =
      SlicedPercentile(base.write_us, 99, kSlices).value_or(0);

  PrintResult(
      failed == 0, r.attempted, failed,
      {{"frontend.prepare_us", total_us("frontend.prepare") / ops, "us"},
       {"frontend.lex_us", fe.lex_us, "us"},
       {"frontend.parse_us", fe.parse_us, "us"},
       {"frontend.analyze_us", fe.analyze_us, "us"},
       {"frontend.canonicalize_us", fe.canonicalize_us, "us"},
       {"plan.cache_hit_ratio",
        Ratio(static_cast<double>(pc1.hits - pc0.hits), lookups), "ratio"},
       {"plan.lookups", lookups, "count"},
       {"plan.invalidations",
        static_cast<double>(pc1.invalidations - pc0.invalidations), "count"},
       {"plan.plan_us", fe.plan_us, "us"},
       {"exec.execute_us", mean_us("exec.execute"), "us"},
       {"exec.rows_per_result",
        Ratio(static_cast<double>(ex1.rows - ex0.rows),
              static_cast<double>(r.result_rows)),
        "ratio"},
       {"exec.result_rows", static_cast<double>(r.result_rows), "count"},
       {"exec.first_read_after_commit_us", Median(r.first_read_after_commit_us), "us"},
       {"exec.parallel_ratio",
        Ratio(parallel_runs, parallel_runs + static_cast<double>(fallbacks)),
        "ratio"},
       {"exec.parallel_eligible_runs",
        parallel_runs + static_cast<double>(fallbacks), "count"},
       {"exec.morsels_per_query",
        Ratio(static_cast<double>(par1.morsels - par0.morsels), parallel_runs),
        "count"},
       {"exec.sort_merges",
        static_cast<double>(par1.sort_merges - par0.sort_merges), "count"},
       {"exec.agg_merges",
        static_cast<double>(par1.agg_merges - par0.agg_merges), "count"},
       {"exec.distinct_merges",
        static_cast<double>(par1.distinct_merges - par0.distinct_merges),
        "count"},
       {"exec.parallel_speedup", w.num_threads == 1
                                     ? 1.0
                                     : Ratio(serial_total, parallel_total),
        "ratio"},
       {"exec.parallel_speedup_group_topk", class_speedup("group_topk"),
        "ratio"},
       {"exec.parallel_speedup_filter_sort", class_speedup("filter_sort"),
        "ratio"},
       {"exec.parallel_speedup_distinct_friends",
        class_speedup("distinct_friends"), "ratio"},
       {"update.execute_us", mean_us("update.execute"), "us"},
       {"core.begin_write_us", mean_us("core.begin_write"), "us"},
       {"core.commit_us", mean_us("core.commit"), "us"},
       {"storage.wal_bytes_per_commit",
        Ratio(static_cast<double>(r.wal_bytes),
              static_cast<double>(r.wal_commits)),
        "bytes"},
       {"storage.checkpoint_ms", mean_us("storage.checkpoint") / 1e3, "ms"},
       {"storage.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
        "bytes"},
       {"storage.recover_ms", recover_ms, "ms"},
       {"bench.client_us", mean_us("bench.op"), "us"},
       {"graph.nodes", static_cast<double>(counts.nodes), "count"},
       {"graph.rels", static_cast<double>(counts.rels), "count"},
       {"tail.read_p99_us", read_p99, "us"},
       {"tail.write_p99_us", write_p99, "us"},
       {"trace.overhead", Ratio(traced_ops_s, untraced_ops_s), "ratio"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc moves its mmap and trim thresholds as the process frees large
  // blocks, so the same run's copy-on-write writes could land on mmap'd or
  // heap memory depending on allocator history, and identical runs came
  // out bimodal (write p50 115 vs 205 us on analytic-2w). Fixed thresholds
  // make the allocator behave the same way in every run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<interactive-text|ingest-durable|analytic-2w> --seed <n> "
                 "--seconds <s> --trace <0|1> [--data-dir <dir>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const Workload w =
      MakeWorkload(*ParseWorkload(args->workload), args->seed, args->seconds);
  std::error_code ec;
  std::filesystem::remove_all(args->data_dir, ec);
  std::filesystem::create_directories(args->data_dir, ec);
  const int rc = args->trace == 1 ? RunTraced(*args, w) : RunEndToEnd(*args, w);
  std::filesystem::remove_all(args->data_dir, ec);
  return rc;
}
