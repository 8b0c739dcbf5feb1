// Storage layer: what durability costs at commit time, and what a
// checkpoint buys at open time. The headline comparison is cold-start —
// Database::Open replaying an N-commit WAL versus loading the
// checkpoint the same history was folded into.
//
// In the committed baseline for trajectory tracking, but NOT gated in
// CI (see ci.yml): every row here is dominated by fsync/file IO, whose
// latency varies wildly across runners and filesystems.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("gqlite_bench_storage_" + name))
          .string();
  fs::remove_all(dir);
  return dir;
}

// Seeds a durable database with `commits` single-CREATE transactions —
// one WAL frame each, which is what makes replay length the variable
// under test.
void SeedCommits(const std::string& dir, int64_t commits,
                 benchmark::State& state) {
  auto opened = Database::Open(dir);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  Database db = std::move(*opened);
  for (int64_t i = 0; i < commits; ++i) {
    auto r = db.Execute(
        "CREATE (:Person {idx: " + std::to_string(i) +
        ", name: 'p" + std::to_string(i) + "'})");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
}

// Cold start, log-heavy layout: open must replay every commit's frame.
void BM_ColdStartWalReplay(benchmark::State& state) {
  std::string dir = ScratchDir("replay_" + std::to_string(state.range(0)));
  SeedCommits(dir, state.range(0), state);
  for (auto _ : state) {
    auto opened = Database::Open(dir);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(opened->Snapshot()->NumNodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColdStartWalReplay)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Cold start, checkpointed layout: the same history folded into a
// baseline, so open deserializes pages instead of replaying commits.
void BM_ColdStartCheckpointLoad(benchmark::State& state) {
  std::string dir = ScratchDir("ckpt_" + std::to_string(state.range(0)));
  SeedCommits(dir, state.range(0), state);
  {
    auto opened = Database::Open(dir);
    if (!opened.ok() || !opened->Checkpoint().ok()) {
      state.SkipWithError("checkpoint setup failed");
      return;
    }
  }
  for (auto _ : state) {
    auto opened = Database::Open(dir);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(opened->Snapshot()->NumNodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColdStartCheckpointLoad)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Per-commit price of durability: the same auto-commit CREATE against
// an in-memory database and against the WAL (append + fdatasync on
// every acknowledged commit).
void BM_CommitInMemory(benchmark::State& state) {
  Database db = bench::MakeEmptyDatabase();
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute("CREATE (:N {idx: " + std::to_string(i++) + "})");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitInMemory);

void BM_CommitDurable(benchmark::State& state) {
  std::string dir = ScratchDir("commit");
  auto opened = Database::Open(dir);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  Database db = std::move(*opened);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute("CREATE (:N {idx: " + std::to_string(i++) + "})");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitDurable);

// Checkpoint cost itself: serialize an N-node committed snapshot and
// truncate the log.
void BM_WriteCheckpoint(benchmark::State& state) {
  std::string dir = ScratchDir("write_" + std::to_string(state.range(0)));
  SeedCommits(dir, state.range(0), state);
  auto opened = Database::Open(dir);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  Database db = std::move(*opened);
  for (auto _ : state) {
    Status st = db.Checkpoint();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WriteCheckpoint)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
