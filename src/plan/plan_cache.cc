#include "src/plan/plan_cache.h"

namespace gqlite {

bool PlanCache::Valid(const Entry& e, uint64_t stats_version,
                      uint64_t data_version) {
  if (stats_version != e.stats_version) return false;
  // Structure unchanged — but enough pure property writes move the NDV
  // sketches (and the equality selectivities baked into a cost-sensitive
  // plan) to make the cached choice wrong.
  uint64_t drift = data_version >= e.data_version
                       ? data_version - e.data_version
                       : e.data_version - data_version;
  return drift < kDataDriftThreshold;
}

PlanCache::EntryPtr PlanCache::Acquire(const std::string& key,
                                       uint64_t stats_version,
                                       uint64_t data_version, bool* busy) {
  MutexLock lock(&mu_);
  if (busy != nullptr) *busy = false;
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  EntryPtr e = *it->second;
  if (!Valid(*e, stats_version, data_version)) {
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  if (e->in_use) {
    // Another session is mid-execution on this plan's (stateful)
    // operator tree. Caller plans fresh and runs uncached.
    if (busy != nullptr) *busy = true;
    ++stats_.misses;
    return nullptr;
  }
  // Promote to most-recently-used.
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  e->in_use = true;
  ++stats_.hits;
  return e;
}

PlanCache::EntryPtr PlanCache::InsertAcquire(
    std::string key, PreparedPtr prepared, Plan plan, uint64_t stats_version,
    uint64_t data_version) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Displaced entry may still be pinned by an executor; dropping it
    // from the index is enough — the executor's shared_ptr owns it.
    lru_.erase(it->second);
    index_.erase(it);
  }
  auto e = std::make_shared<Entry>();
  e->key = std::move(key);
  e->prepared = std::move(prepared);
  e->plan = std::move(plan);
  e->stats_version = stats_version;
  e->data_version = data_version;
  e->in_use = true;
  lru_.push_front(e);
  index_.emplace(e->key, lru_.begin());
  EvictToCapacity();
  return e;
}

void PlanCache::Release(const EntryPtr& entry) {
  if (entry == nullptr) return;
  MutexLock lock(&mu_);
  entry->in_use = false;
}

void PlanCache::EvictToCapacity() {
  while (index_.size() > capacity_) {
    index_.erase(lru_.back()->key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace gqlite
