#ifndef GQLITE_PLAN_PLAN_CACHE_H_
#define GQLITE_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/sync.h"
#include "src/frontend/analyzer.h"
#include "src/plan/planner.h"

namespace gqlite {

/// A parsed, analyzed and auto-parameterized query, shared between
/// PreparedQuery handles and plan-cache entries. Immutable once built;
/// cached plans borrow its AST, so entries keep it alive via shared_ptr.
struct PreparedStatement {
  /// The canonicalized AST (literals replaced by synthetic parameters).
  ast::Query query;
  /// Values of the extracted literals, keyed by their synthetic `$_pN`
  /// names. Overlaid on the user's parameter map at execution time.
  ValueMap constants;
  /// Analysis result (computed on the original query text).
  QueryInfo info;
  /// True if any clause is RETURN GRAPH (routes to the interpreter).
  bool has_return_graph = false;
  /// Normalized query text — the cache key. Empty for statements that
  /// bypass the cache.
  std::string text_key;
};

using PreparedPtr = std::shared_ptr<const PreparedStatement>;

/// Hit/miss accounting, surfaced through CypherEngine::plan_cache_stats().
struct PlanCacheStats {
  uint64_t hits = 0;           // valid cached plan reused
  uint64_t misses = 0;         // no usable plan (includes invalidations
                               // and busy entries pinned by another session)
  uint64_t evictions = 0;      // LRU capacity evictions
  uint64_t invalidations = 0;  // entries dropped because the default
                               // graph's statistics changed since planning
};

/// A bounded LRU cache of compiled physical plans keyed on the normalized
/// (auto-parameterized) query text. One cache serves one engine, whose
/// options are fixed, so the text alone identifies the plan.
///
/// Only default-graph plans are cached: statements that read a catalog
/// graph (FROM GRAPH / QUERY GRAPH) get no cache key at Prepare. A cached
/// plan bakes in no graph data — every context is rebound to the
/// executing snapshot — only choices made from its statistics. Validity
/// is therefore one pair of versions of the default graph, recorded at
/// planning time:
///  * stats_version, exact-match validated: label/type/degree statistics
///    moved, so the plan's operator and order choices may be wrong;
///  * data_version, drift-validated (|now - then| >= kDataDriftThreshold
///    invalidates): pure property SETs move the NDV sketches — and with
///    them the equality selectivities a cost-sensitive plan baked in —
///    WITHOUT bumping stats_version, so enough of them must re-plan even
///    though the structure is unchanged.
/// A lookup that finds a stale entry drops it and reports a miss.
///
/// Thread-safety: INTERNALLY LOCKED — every method takes mu_ itself, so
/// any number of sessions may call concurrently. Entries are handed out
/// PINNED: a plan's operator tree is a stateful single-use pipeline, so
/// two executions must never share one entry. Acquire marks the entry
/// in-use and a concurrent Acquire of the same key reports `busy` (the
/// caller plans fresh and executes uncached); Release un-pins. Eviction,
/// replacement and Clear may remove a pinned entry from the cache — the
/// executing session's shared_ptr keeps it alive until Release.
class PlanCache {
 public:
  struct Entry {
    std::string key;
    PreparedPtr prepared;
    Plan plan;
    /// The default graph's versions at planning time (see class comment).
    uint64_t stats_version = 0;
    uint64_t data_version = 0;
    /// True while a session executes this plan (guarded by the cache
    /// mutex; never touch outside the cache).
    bool in_use = false;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  static constexpr size_t kDefaultCapacity = 128;

  /// How many data_version increments (mutations that do NOT move
  /// stats_version, i.e. pure property writes) an entry tolerates before
  /// it re-plans. Each write can move a property NDV sketch — and with
  /// it the 1/NDV equality selectivities a cost-sensitive plan choice
  /// was based on. One write cannot flip a sane plan; re-planning every
  /// statement would defeat the cache; 16 bounds the staleness while
  /// keeping single-SET workloads (the common case) on the cached plan.
  static constexpr uint64_t kDataDriftThreshold = 16;

  /// Looks up `key` and pins the entry for execution. Returns null when:
  ///  * absent (miss);
  ///  * stale against `stats_version` / `data_version`, the executing
  ///    snapshot's values (the entry is erased; invalidation + miss);
  ///  * present and valid but pinned by another session (`*busy` set to
  ///    true; miss) — the caller should plan fresh and skip InsertAcquire.
  /// On success the entry is promoted to most-recently-used, marked
  /// in-use, and counted as a hit; the caller MUST Release it.
  EntryPtr Acquire(const std::string& key, uint64_t stats_version,
                   uint64_t data_version, bool* busy) EXCLUDES(mu_);

  /// Inserts (or replaces) the entry for `key`, planned against a default
  /// graph at `stats_version` / `data_version`, pinned for the caller's
  /// execution; evicts the least recently used entry if over capacity.
  /// A displaced or evicted entry that is currently pinned simply drops
  /// out of the index — its executor still owns it. Caller MUST Release.
  EntryPtr InsertAcquire(std::string key, PreparedPtr prepared, Plan plan,
                         uint64_t stats_version, uint64_t data_version)
      EXCLUDES(mu_);

  /// Un-pins an entry returned by Acquire/InsertAcquire.
  void Release(const EntryPtr& entry) EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return index_.size();
  }

  PlanCacheStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  static bool Valid(const Entry& e, uint64_t stats_version,
                    uint64_t data_version);
  void EvictToCapacity() REQUIRES(mu_);

  /// Mutable so const reads (size, stats) lock through the same
  /// capability as writers.
  mutable Mutex mu_;
  const size_t capacity_;
  /// MRU at the front; eviction pops from the back.
  std::list<EntryPtr> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<EntryPtr>::iterator> index_
      GUARDED_BY(mu_);
  PlanCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace gqlite

#endif  // GQLITE_PLAN_PLAN_CACHE_H_
