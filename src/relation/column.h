// Columnar storage for one attribute: dictionary codes for categorical
// attributes, doubles for numeric attributes.
#ifndef FAIRTOPK_RELATION_COLUMN_H_
#define FAIRTOPK_RELATION_COLUMN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "relation/schema.h"

namespace fairtopk {

/// One column of a Table. Exactly one of the two payload vectors is
/// populated, matching the attribute's declared type.
class Column {
 public:
  /// Creates a categorical column holding `codes` (empty by default).
  static Column Categorical(std::vector<int16_t> codes = {}) {
    Column c;
    c.type_ = AttributeType::kCategorical;
    c.codes_ = std::move(codes);
    return c;
  }

  /// Creates a numeric column holding `values` (empty by default).
  static Column Numeric(std::vector<double> values = {}) {
    Column c;
    c.type_ = AttributeType::kNumeric;
    c.values_ = std::move(values);
    return c;
  }

  AttributeType type() const { return type_; }

  /// Number of stored rows.
  size_t size() const {
    return type_ == AttributeType::kCategorical ? codes_.size()
                                                : values_.size();
  }

  /// Appends a dictionary code. Requires a categorical column.
  void AppendCode(int16_t code) { codes_.push_back(code); }

  /// Appends a numeric value. Requires a numeric column.
  void AppendValue(double value) { values_.push_back(value); }

  /// Dictionary code at `row`. Requires a categorical column.
  int16_t code(size_t row) const { return codes_[row]; }

  /// Numeric value at `row`. Requires a numeric column.
  double value(size_t row) const { return values_[row]; }

  /// Raw code vector (categorical columns).
  const std::vector<int16_t>& codes() const { return codes_; }

  /// Raw value vector (numeric columns).
  const std::vector<double>& values() const { return values_; }

 private:
  Column() = default;

  AttributeType type_ = AttributeType::kCategorical;
  std::vector<int16_t> codes_;
  std::vector<double> values_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_RELATION_COLUMN_H_
