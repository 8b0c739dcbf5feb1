// Tests of the benchmark's own logic: percentile selection, self-time
// arithmetic, seed determinism, failure accounting and speed scaling.
// Exits non-zero on the first failed check.
// Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/speed.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

int g_checks = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    ++g_checks;                                                        \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenSamplesBeyond() {
  CHECK(!Percentile({}, 50));
  CHECK(!Percentile(Range(999), 99));  // rank 990: 9 beyond
  CHECK(Percentile(Range(1000), 99) == 990.0);  // rank 990: 10 beyond
  CHECK(!Percentile(Range(19), 50));
  CHECK(Percentile(Range(20), 50) == 10.0);
  CHECK(Percentile(Range(2000), 50) == 1000.0);
  // Five slices of 1,000: slice i holds 1000*i + 1 .. 1000*(i + 1), with
  // one stall in slice 3; the median of the slice p99s ignores it.
  std::vector<double> run;
  for (int i = 1; i <= 5000; ++i) run.push_back(i);
  CHECK(SlicedPercentile(run, 99, 5) == 2990.0);
  for (int i = 3000; i < 3100; ++i) run[i] = 1e9;
  CHECK(SlicedPercentile(run, 99, 5) == 2990.0);
  CHECK(*Percentile(run, 99) == 1e9);
  // Fewer samples: as many slices as keep ten beyond p99 in each. 2,500
  // descending samples make two slices, 2500..1251 and 1250..1, whose
  // p99s (rank 1238 of 1250) are 2488 and 1238.
  CHECK(SlicedPercentile(Range(2500), 99, 5) == (2488.0 + 1238.0) / 2);
  CHECK(SlicedPercentile(std::vector<double>(2000, 7.0), 99, 5) == 7.0);
  CHECK(!SlicedPercentile(Range(999), 99, 5));
  CHECK(Median({3, 1, 2}) == 2.0);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
}

void TestSelfTimeOnSyntheticTree() {
  // root [0,100] has children a [10,30] and b [20,50] (overlapping: their
  // union covers 40) and c [90,120] (clipped to the root: covers 10);
  // a has a child d [12,15].
  std::vector<Span> spans = {
      {"root", 0, -1, 0, 100},  {"a", 0, 0, 10, 30}, {"b", 0, 0, 20, 50},
      {"c", 0, 0, 90, 120},     {"d", 0, 1, 12, 15}, {"a", 1, -1, 200, 210},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 50);
  CHECK(self[1] == 17);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 3);
  CHECK(self[5] == 10);
  const auto by_name = SelfTimeByName(spans);
  CHECK(by_name.at("a").count == 2);
  CHECK(by_name.at("a").self_ns == 27);
  CHECK(by_name.at("root").self_ns == 50);

  // The Tracer nests spans by scope and stamps the operation id.
  Tracer tracer(true);
  tracer.set_op(7);
  {
    ScopedSpan outer(&tracer, "outer");
    ScopedSpan inner(&tracer, "inner");
  }
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.spans()[1].parent == 0);
  CHECK(tracer.spans()[1].op == 7);
  CHECK(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
  Tracer off(false);
  { ScopedSpan span(&off, "ignored"); }
  CHECK(off.spans().empty());
}

std::vector<std::string> Sequence(WorkloadKind kind, uint64_t seed) {
  std::vector<std::string> out;
  const Workload w = MakeWorkload(kind, seed, 1);
  out.push_back(std::to_string(w.graph_seed) + "/" +
                std::to_string(w.initial_score_sum));
  for (const Op& op : w.ops) out.push_back(Render(op));
  return out;
}

void TestSeedDeterminism() {
  for (WorkloadKind kind :
       {WorkloadKind::kInteractiveText, WorkloadKind::kIngestDurable,
        WorkloadKind::kAnalytic2w}) {
    const auto a = Sequence(kind, 42);
    CHECK(a.size() > 1000);
    CHECK(a == Sequence(kind, 42));
    CHECK(a != Sequence(kind, 43));
  }
}

// A tiny in-memory workload whose operations the test writes by hand.
Workload TinyWorkload() {
  Workload w;
  w.name = "tiny";
  w.graph = {10, 2, 5, 0, false};
  w.read_classes = {"point"};
  w.prepared_texts = {
      "MATCH (p:Person {id: $id}) RETURN p.score AS score",
      "MATCH (p:Person {id: $id}) SET p.score = p.score + 1"};
  return w;
}

Op Point(int64_t id, int64_t rows) {
  Op op;
  Stmt s;
  s.prepared = 0;
  s.params = {{"id", gqlite::Value::Int(id)}};
  s.expect.min_rows = rows;
  s.expect.max_rows = rows;
  op.stmts.push_back(s);
  return op;
}

Op Set(int64_t id, int64_t properties_set) {
  Op op;
  op.type = OpType::kWrite;
  Stmt s;
  s.prepared = 1;
  s.params = {{"id", gqlite::Value::Int(id)}};
  s.expect.properties_set = properties_set;
  op.stmts.push_back(s);
  return op;
}

void TestForcedMismatchCountsAsFailure() {
  Workload w = TinyWorkload();
  w.ops = {Point(1, 1), Point(2, 2) /* wrong: one row */, Set(3, 1),
           Set(4, 2) /* wrong: one property */, Set(99, 1) /* no match */};
  auto db = gqlite::Database::OpenInMemory();
  CHECK(db.ok());
  CHECK(LoadGraph(&*db, w).ok());
  Tracer off(false);
  Runner runner(&*db, w, &off, "");
  CHECK(runner.Prepare().ok());
  int between = 0;
  const RunResult r = runner.RunAll([&] { ++between; }, 2);
  CHECK(between == 2);
  CHECK(r.attempted == 5);
  CHECK(r.failed == 3);
  // Failed operations keep their latency out of the samples, and a
  // failed write transaction is rolled back, not acknowledged.
  CHECK(r.read_us.size() == 1);
  CHECK(r.write_us.size() == 1);
  CHECK(r.acked.properties_set == 1);
  auto sum = db->Execute("MATCH (p:Person) RETURN sum(p.score)");
  CHECK(sum.ok());
  CHECK(sum->table.rows()[0][0].AsInt() == 1);
  auto counts = CountGraph(&*db);
  CHECK(counts.ok());
  CHECK(counts->persons == 10 && counts->nodes == 12 && counts->rels == 15);
}

// Speed scaling: a run whose host slows to half speed for a stretch
// reports the same times as one that ran at the reference speed all
// along, and one stray slow probe does not move any factor. With sync
// probes, the Commit part of a write follows the disk's factor instead.
void TestScaleToReference() {
  RunResult r;
  for (int w = 0; w < 20; ++w) {
    const double slow = w >= 8 && w < 14 ? 2.0 : 1.0;
    r.window_ns.push_back(1e6 * slow);  // 1 ms of work at reference speed
    r.probe_ns.push_back(kReferenceProbeNs * slow);
    r.read_us.push_back(100 * slow);
    r.read_window.push_back(static_cast<uint32_t>(w));
  }
  r.probe_ns[3] *= 5;  // one probe met a stall of its own
  const std::vector<double> f =
      SpeedFactors(r.probe_ns, kReferenceProbeNs, kProbeRadius);
  CHECK(f.size() == 20 && f[0] == 1.0 && f[3] == 1.0 && f[10] == 0.5);
  ScaledTimes t = ScaleToReference(r);
  CHECK(std::abs(t.elapsed_s - 0.020) < 1e-12);
  for (double us : t.read_us) CHECK(std::abs(us - 100) < 1e-9);
  // The medians at the edges of the slow stretch mix both speeds; two
  // probes on each side make the switch land exactly on the stretch.
  CHECK(f[7] == 1.0 && f[8] == 0.5 && f[13] == 0.5 && f[14] == 1.0);

  // A durable run whose disk is three times slower throughout: one write
  // per window, 50 us of work and a commit that takes 3 x 40 us.
  for (int w = 0; w < 20; ++w) {
    const double slow = w >= 8 && w < 14 ? 2.0 : 1.0;
    r.sync_probe_ns.push_back(kReferenceSyncNs * 3);
    r.write_us.push_back(50 * slow + 120);
    r.commit_us.push_back(120);
    r.write_window.push_back(static_cast<uint32_t>(w));
    r.window_ns[w] += 50e3 * slow + 120e3;
  }
  t = ScaleToReference(r);
  for (double us : t.write_us) CHECK(std::abs(us - 90) < 1e-9);
  CHECK(std::abs(t.elapsed_s - 20 * (1e6 + 90e3) / 1e9) < 1e-12);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileNeedsTenSamplesBeyond();
  TestSelfTimeOnSyntheticTree();
  TestSeedDeterminism();
  TestForcedMismatchCountsAsFailure();
  TestScaleToReference();
  std::printf("perfbench self-test: %d checks passed\n", g_checks);
  return 0;
}
