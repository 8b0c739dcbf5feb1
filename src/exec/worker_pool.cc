#include "src/exec/worker_pool.h"

#include <utility>

namespace gqlite {

WorkerPool::WorkerPool(size_t num_threads) {
  statuses_.resize(num_threads + 1, Status::OK());
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;  // idempotent: the threads are already joined
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void WorkerPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  while (true) {
    const std::function<Status(size_t)>* job = nullptr;
    {
      MutexLock lock(&mu_);
      // Raw wait loop (not a predicate lambda): every read of the
      // guarded fields stays inside this function, where the analysis
      // can see the lock is held.
      while (!shutdown_ && generation_ == seen) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    Status st = (*job)(index);
    {
      MutexLock lock(&mu_);
      statuses_[index] = std::move(st);
      if (--pending_ == 0) done_cv_.NotifyAll();
    }
  }
}

Status WorkerPool::RunOnAll(const std::function<Status(size_t)>& fn) {
  {
    MutexLock lock(&mu_);
    for (auto& s : statuses_) s = Status::OK();
    job_ = &fn;
    pending_ = threads_.size();
    ++generation_;
  }
  work_cv_.NotifyAll();
  // The calling thread is worker 0 — it participates instead of idling.
  Status mine = fn(0);
  {
    MutexLock lock(&mu_);
    while (pending_ != 0) done_cv_.Wait(&mu_);
    job_ = nullptr;
    statuses_[0] = std::move(mine);
    for (const Status& s : statuses_) {
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

}  // namespace gqlite
