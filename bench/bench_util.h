#ifndef GQLITE_BENCH_BENCH_UTIL_H_
#define GQLITE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "src/core/database.h"
#include "src/workload/generators.h"
#include "src/workload/paper_graphs.h"

namespace gqlite {
namespace bench {

/// Set by the shared `--no-plan-cache` flag (GQLITE_BENCH_MAIN): disables
/// plan reuse in every engine built through MakeDatabase, restoring
/// plan-per-execution behaviour so runs stay comparable with pre-cache
/// baselines.
inline bool g_no_plan_cache = false;

/// Set by the shared `--no-batch` flag: forces batch_size = 1 in every
/// engine built through MakeDatabase, restoring tuple-at-a-time Volcano
/// execution so runs stay comparable with pre-batching baselines.
inline bool g_no_batch = false;

/// Set by the shared `--threads N` / `--threads=N` flag: worker count of
/// the morsel-driven parallel runtime for every engine built through
/// MakeDatabase (0 = leave each benchmark's own EngineOptions untouched).
inline size_t g_num_threads = 0;

/// Parses the `--threads` value strictly: a benchmark silently running at
/// the wrong worker count measures something other than what the
/// operator asked for (the same failure mode GQLITE_THREADS parsing
/// rejects).
inline size_t ParseThreadsFlagOrDie(const char* text) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0 || v > 256) {
    std::fprintf(stderr, "--threads: \"%s\" is not a worker count in "
                         "[1, 256]\n", text);
    std::exit(2);
  }
  return static_cast<size_t>(v);
}

/// Strips gqlite-specific flags from argv before benchmark::Initialize
/// (which rejects flags it does not know).
inline void ConsumeGqliteBenchFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--no-plan-cache") {
      g_no_plan_cache = true;
    } else if (arg == "--no-batch") {
      g_no_batch = true;
    } else if (arg == "--threads" && i + 1 < *argc) {
      g_num_threads = ParseThreadsFlagOrDie(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      g_num_threads =
          ParseThreadsFlagOrDie(argv[i] + sizeof("--threads=") - 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Opens an in-memory database starting from `initial` (empty when
/// null) with the shared bench flags applied. Aborts on failure:
/// benchmarks must not silently measure a misconfigured engine.
inline Database OpenWithFlags(EngineOptions opts, GraphPtr initial) {
  if (g_no_plan_cache) opts.use_plan_cache = false;
  if (g_no_batch) opts.batch_size = 1;
  if (g_num_threads > 0) opts.num_threads = g_num_threads;
  Result<Database> db = Database::OpenInMemory(opts, std::move(initial));
  if (!db.ok()) {
    std::fprintf(stderr, "OpenInMemory failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*db);
}

inline Database MakeEmptyDatabase(EngineOptions opts = {}) {
  return OpenWithFlags(opts, nullptr);
}

/// Builds an in-memory database whose default graph is `g` — both the
/// implicit graph plain `db.Execute(query)` sees and the `bench` named
/// graph the MustRun `FROM GRAPH bench` prefix selects.
inline Database MakeDatabase(GraphPtr g, EngineOptions opts = {}) {
  Database db = OpenWithFlags(opts, g);
  db.RegisterGraph("bench", std::move(g));
  return db;
}

/// Runs a query against a named graph and aborts the benchmark binary on
/// error (benchmarks must not silently measure failures).
inline Table MustRun(Database& db, const std::string& query) {
  auto r = db.Execute("FROM GRAPH bench " + query);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", query.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r->table);
}

/// Verification helper for the table-reproduction binaries: compares a
/// measured table against the paper's printed rows and reports.
inline bool CheckTable(const char* experiment, const Table& measured,
                       const Table& expected) {
  bool ok = measured.SameBag(expected);
  std::printf("[%s] %s\n", ok ? "OK" : "MISMATCH", experiment);
  if (!ok) {
    std::printf("--- paper expects ---\n%s--- measured ---\n%s",
                expected.ToString().c_str(), measured.ToString().c_str());
  }
  return ok;
}

}  // namespace bench
}  // namespace gqlite

/// Drop-in replacement for BENCHMARK_MAIN() that understands the shared
/// gqlite flags (currently `--no-plan-cache`). Benchmarks built on the
/// Google Benchmark harness use this instead of BENCHMARK_MAIN().
#define GQLITE_BENCH_MAIN()                                             \
  int main(int argc, char** argv) {                                     \
    ::gqlite::bench::ConsumeGqliteBenchFlags(&argc, argv);              \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    return 0;                                                           \
  }

#endif  // GQLITE_BENCH_BENCH_UTIL_H_
