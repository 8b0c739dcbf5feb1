#ifndef GQLITE_EXEC_WORKER_POOL_H_
#define GQLITE_EXEC_WORKER_POOL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"

namespace gqlite {

/// A fixed pool of worker threads for morsel-driven parallel execution.
/// The pool spawns its threads once and parks them between jobs, so a
/// parallel query pays a wakeup, not a thread spawn. One job, submitted
/// with RunOnAll, runs at a time (parallelism is intra-query).
///
/// Thread-safety: the job handoff is fully annotated (`mu_` guards every
/// handoff field; Clang's -Wthread-safety proves the discipline).
/// Construction, Shutdown and RunOnAll themselves are single-owner
/// operations — one thread drives the pool, the pool threads only ever
/// run WorkerLoop.
class WorkerPool {
 public:
  /// Spawns `num_threads` parked worker threads (0 is valid: RunOnAll
  /// then runs everything on the calling thread).
  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of pool threads (total workers a job sees = size() + 1).
  size_t size() const { return threads_.size(); }

  /// Stops and joins every pool thread. Idempotent — a second call (or
  /// the destructor after an explicit call) is a no-op. After Shutdown
  /// the pool is empty: size() is 0 and RunOnAll degenerates to running
  /// the job on the calling thread only.
  void Shutdown() EXCLUDES(mu_);

  /// The pool's only submission primitive: runs `fn(i)` once on each of
  /// the size() + 1 workers, i = 0..size(), and returns after all have
  /// finished. The calling thread is worker 0. When several calls fail,
  /// the failure with the lowest index wins, so the reported error does
  /// not depend on thread timing.
  Status RunOnAll(const std::function<Status(size_t)>& fn) EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t index) EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  /// The in-flight job; non-null exactly while a RunOnAll is active.
  const std::function<Status(size_t)>* job_ GUARDED_BY(mu_) = nullptr;
  /// Bumped per job; workers run once per bump.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  /// Pool threads still running the current job.
  size_t pending_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Per worker index, 0 = caller.
  std::vector<Status> statuses_ GUARDED_BY(mu_);
  /// Written by the constructor and Shutdown() only (both single-owner
  /// operations; joining must not hold mu_ — WorkerLoop needs it to
  /// observe shutdown_). WorkerLoop never touches it.
  std::vector<std::thread> threads_;
};

}  // namespace gqlite

#endif  // GQLITE_EXEC_WORKER_POOL_H_
