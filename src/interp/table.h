#ifndef GQLITE_INTERP_TABLE_H_
#define GQLITE_INTERP_TABLE_H_

#include <string>
#include <vector>

#include "src/value/value.h"

namespace gqlite {

class PropertyGraph;
class RowBatch;

/// A table in the paper's sense (§4.1): a *bag* of uniform records over a
/// set of named fields. Queries are functions from tables to tables;
/// evaluation starts from Table::Unit(), the table containing the single
/// empty tuple ().
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> fields)
      : fields_(std::move(fields)) {}

  /// T(): one empty record, no fields — the input to every query.
  static Table Unit() {
    Table t;
    t.rows_.emplace_back();
    return t;
  }

  const std::vector<std::string>& fields() const { return fields_; }
  const std::vector<ValueList>& rows() const { return rows_; }
  std::vector<ValueList>& mutable_rows() { return rows_; }
  size_t NumRows() const { return rows_.size(); }
  size_t NumFields() const { return fields_.size(); }

  /// Index of `name` or -1.
  int FieldIndex(const std::string& name) const;

  // lint: allow(value-by-value) move sink: callers hand over the row
  void AddRow(ValueList row) { rows_.push_back(std::move(row)); }

  /// Moves the live rows of a morsel into the table (the batched
  /// runtime's drain step; `batch` is left in an unspecified row state).
  void AddBatch(RowBatch* batch);

  /// Bag union (⊎): appends the rows of `other` (fields must agree).
  void Append(const Table& other);

  /// ε(T): duplicate elimination by value equivalence.
  Table Deduplicated() const;

  /// Canonical row order (lexicographic ValueOrder) — for bag comparison
  /// in tests; the engine itself never sorts implicitly.
  Table Sorted() const;

  /// True if both tables have the same fields and the same bag of rows.
  bool SameBag(const Table& other) const;

  /// ASCII rendering; when `graph` is given, nodes/relationships render
  /// with labels and properties.
  std::string ToString(const PropertyGraph* graph = nullptr) const;

 private:
  std::vector<std::string> fields_;
  std::vector<ValueList> rows_;
};

}  // namespace gqlite

#endif  // GQLITE_INTERP_TABLE_H_
