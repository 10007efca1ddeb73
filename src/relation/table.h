// Column-major relational table: the dataset D of the paper.
#ifndef FAIRTOPK_RELATION_TABLE_H_
#define FAIRTOPK_RELATION_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/column.h"
#include "relation/schema.h"

namespace fairtopk {

/// One cell in a row being appended: a dictionary code for categorical
/// attributes or a double for numeric attributes.
struct Cell {
  /// Categorical payload.
  static Cell Code(int16_t code) {
    Cell c;
    c.is_code = true;
    c.code = code;
    return c;
  }
  /// Numeric payload.
  static Cell Value(double value) {
    Cell c;
    c.is_code = false;
    c.value = value;
    return c;
  }

  bool is_code = true;
  int16_t code = 0;
  double value = 0.0;
};

/// An immutable-shaped (append-only) column-major table over a Schema.
class Table {
 public:
  /// Creates an empty table for `schema`. Fails if the schema is empty.
  static Result<Table> Create(Schema schema);

  /// Builds a table from whole columns, one per attribute of `schema`
  /// in order: how a load (CSV, bucketizing, snapshot) makes its table,
  /// where AppendRow builds one row at a time. The columns are checked
  /// as AppendRow checks a row: a column count or kind that disagrees
  /// with the schema and columns of unequal length are
  /// kInvalidArgument, a code outside [0, domain_size) is kOutOfRange.
  /// Fails if the schema is empty, as Create does.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  /// Appends a full row. Cell kinds and codes must match the schema
  /// (codes within the declared domain).
  Status AppendRow(const std::vector<Cell>& row);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.size(); }

  /// Column accessor. Requires index < num_attributes().
  const Column& column(size_t index) const { return columns_[index]; }

  /// Dictionary code of categorical attribute `attr` in row `row`.
  int16_t CodeAt(size_t row, size_t attr) const {
    return columns_[attr].code(row);
  }

  /// Numeric value of attribute `attr` in row `row`.
  double ValueAt(size_t row, size_t attr) const {
    return columns_[attr].value(row);
  }

  /// Human-readable rendering of the categorical value in (row, attr),
  /// or the numeric value formatted with 4 digits.
  std::string DisplayAt(size_t row, size_t attr) const;

  /// Moves the columns out, for rebuilding a table around them with
  /// FromColumns; the schema stays readable. The table is left without
  /// rows or columns and must not be read through its row accessors.
  std::vector<Column> ReleaseColumns() &&;

 private:
  explicit Table(Schema schema);

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_RELATION_TABLE_H_
