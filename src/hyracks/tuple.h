#ifndef SIMDB_HYRACKS_TUPLE_H_
#define SIMDB_HYRACKS_TUPLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace simdb::hyracks {

/// One row flowing between operators: a flat vector of ADM values addressed
/// by position. Column names live in the RowSchema attached to the producing
/// operator, not in the tuple.
using Tuple = std::vector<adm::Value>;

/// All rows of one partition.
using Rows = std::vector<Tuple>;

/// Operator input/output: one Rows per partition. Every operator in a job
/// produces the same number of partitions (the cluster's total partition
/// count).
using PartitionedRows = std::vector<Rows>;

/// Ordered column names describing the tuples of one operator's output.
class RowSchema {
 public:
  RowSchema() = default;
  explicit RowSchema(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  const std::string& column(size_t i) const { return columns_[i]; }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Position of `name`, or -1 when absent.
  int IndexOf(std::string_view name) const;
  bool Contains(std::string_view name) const { return IndexOf(name) >= 0; }
  Result<int> Require(std::string_view name) const;

  /// Appends a column, returning its index.
  int Add(std::string name) {
    columns_.push_back(std::move(name));
    return static_cast<int>(columns_.size()) - 1;
  }

  static RowSchema Concat(const RowSchema& a, const RowSchema& b);

  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
};

/// A copy of `row` with capacity for `extra` more columns, so appending
/// them does not reallocate. Copying a column shares its payload.
inline Tuple ExtendedRow(const Tuple& row, size_t extra) {
  Tuple out;
  out.reserve(row.size() + extra);
  out.insert(out.end(), row.begin(), row.end());
  return out;
}

/// `left` followed by `right`, allocated once at the final width.
inline Tuple ConcatRows(const Tuple& left, const Tuple& right) {
  Tuple out = ExtendedRow(left, right.size());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

/// In-memory footprint of a tuple counted per reference (Σ
/// Value::MemoryUsage): what the memory quota charges for a held row.
uint64_t TupleBytes(const Tuple& tuple);

/// Bytes the tuple occupies in the rows wire encoding (a u32 column count,
/// then each value's Value::Serialize bytes): what exchange operators
/// account as network traffic for the cluster cost model. Independent of
/// the in-memory layout.
uint64_t TupleWireBytes(const Tuple& tuple);

uint64_t RowsCount(const PartitionedRows& rows);

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_TUPLE_H_
