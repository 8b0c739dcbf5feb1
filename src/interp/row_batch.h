#ifndef GQLITE_INTERP_ROW_BATCH_H_
#define GQLITE_INTERP_ROW_BATCH_H_

#include <cstdint>
#include <vector>

#include "src/value/value.h"

namespace gqlite {

/// A morsel of rows flowing between physical operators. The batched
/// runtime (see src/plan/runtime.h) moves one RowBatch per virtual call
/// instead of one row, amortizing dispatch and keeping per-operator state
/// hot across the ~kDefaultCapacity rows of a morsel.
///
/// Rows are stored densely in production order; filters mark surviving
/// rows through a *selection vector* instead of copying them out, so a
/// chain of filters costs one indirection, not one materialization each.
/// All consumers see the batch through `size()`/`row(i)`, which apply the
/// selection transparently.
class RowBatch {
 public:
  /// Default morsel capacity (EngineOptions::batch_size overrides).
  static constexpr size_t kDefaultCapacity = 1024;

  /// `capacity` caps how many rows a producer may append; slot storage
  /// grows on demand (small results never pay for a full morsel).
  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  /// True once the producer should stop appending (underlying rows, not
  /// the selected view — a filtered batch never regains room).
  bool full() const { return used_ >= capacity_; }
  /// Number of live rows (selection applied).
  size_t size() const { return has_selection_ ? sel_.size() : used_; }
  bool empty() const { return size() == 0; }

  /// i-th live row.
  const ValueList& row(size_t i) const {
    return rows_[has_selection_ ? sel_[i] : i];
  }
  /// Mutable access to the i-th live row (consumers may move rows out of
  /// a batch they are about to discard).
  ValueList& MutableRow(size_t i) {
    return rows_[has_selection_ ? sel_[i] : i];
  }

  /// Drops all rows and the selection; keeps the capacity AND the row
  /// slots — refilling a cleared batch reuses each slot's ValueList
  /// allocation instead of reallocating per row.
  void Clear() {
    used_ = 0;
    sel_.clear();
    has_selection_ = false;
  }

  // lint: allow(value-by-value) move sink: callers hand over the row
  void Append(ValueList row) {
    if (used_ < rows_.size()) {
      rows_[used_] = std::move(row);
    } else {
      rows_.push_back(std::move(row));
    }
    ++used_;
  }

  /// Appends a copy of `base` and returns it for in-place extension (the
  /// common produce pattern: copy the driving row, push new columns).
  ValueList& AppendFrom(const ValueList& base) {
    if (used_ < rows_.size()) {
      ValueList& slot = rows_[used_++];
      slot.assign(base.begin(), base.end());
      return slot;
    }
    rows_.push_back(base);
    ++used_;
    return rows_.back();
  }

  /// Drops the last appended row again; its slot keeps the ValueList
  /// allocation for the next append (a scan that filters in place reuses
  /// one slot for every rejected candidate). Only before any Select().
  void PopBack() { --used_; }

  /// Restricts the live set to the given *live indices* (positions in
  /// 0..size()-1, ascending). Composes with an existing selection, so
  /// stacked filters narrow the same batch without copying rows.
  void Select(const std::vector<uint32_t>& live) {
    if (!has_selection_) {
      sel_.assign(live.begin(), live.end());
      has_selection_ = true;
      return;
    }
    std::vector<uint32_t> mapped;
    mapped.reserve(live.size());
    for (uint32_t i : live) mapped.push_back(sel_[i]);
    sel_ = std::move(mapped);
  }

 private:
  size_t capacity_;
  std::vector<ValueList> rows_;  // slot pool; first used_ entries are live
  size_t used_ = 0;
  std::vector<uint32_t> sel_;  // indices into rows_ when has_selection_
  bool has_selection_ = false;
};

/// Counters a drain accumulates over a plan execution (gqlsh :stats).
struct BatchStats {
  int64_t rows = 0;
  int64_t batches = 0;
};

}  // namespace gqlite

#endif  // GQLITE_INTERP_ROW_BATCH_H_
