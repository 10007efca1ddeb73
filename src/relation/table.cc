#include "relation/table.h"

#include "common/strings.h"

namespace fairtopk {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const auto& attr : schema_.attributes()) {
    columns_.push_back(attr.type == AttributeType::kCategorical
                           ? Column::Categorical()
                           : Column::Numeric());
  }
}

Result<Table> Table::Create(Schema schema) {
  if (schema.size() == 0) {
    return Status::InvalidArgument("table schema must have attributes");
  }
  return Table(std::move(schema));
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns) {
  if (schema.size() == 0) {
    return Status::InvalidArgument("table schema must have attributes");
  }
  if (columns.size() != schema.size()) {
    return Status::InvalidArgument(
        std::to_string(columns.size()) + " columns, schema has " +
        std::to_string(schema.size()) + " attributes");
  }
  const size_t num_rows = columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    const auto& attr = schema.attribute(i);
    if (columns[i].type() != attr.type) {
      return Status::InvalidArgument(
          "attribute '" + attr.name + "' expects a " +
          (attr.type == AttributeType::kCategorical ? "categorical"
                                                    : "numeric") +
          " column");
    }
    if (columns[i].size() != num_rows) {
      return Status::InvalidArgument(
          "column of attribute '" + attr.name + "' has " +
          std::to_string(columns[i].size()) + " rows, expected " +
          std::to_string(num_rows));
    }
    if (attr.type != AttributeType::kCategorical) continue;
    const std::vector<int16_t>& codes = columns[i].codes();
    for (size_t r = 0; r < codes.size(); ++r) {
      if (codes[r] < 0 || static_cast<size_t>(codes[r]) >= attr.domain_size()) {
        return Status::OutOfRange(
            "code " + std::to_string(codes[r]) + " in row " +
            std::to_string(r) + " outside the domain of attribute '" +
            attr.name + "'");
      }
    }
  }
  Table table(std::move(schema));
  table.columns_ = std::move(columns);
  table.num_rows_ = num_rows;
  return table;
}

std::vector<Column> Table::ReleaseColumns() && {
  num_rows_ = 0;
  return std::move(columns_);
}

Status Table::AppendRow(const std::vector<Cell>& row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(schema_.size()) + " attributes");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const auto& attr = schema_.attribute(i);
    if (attr.type == AttributeType::kCategorical) {
      if (!row[i].is_code) {
        return Status::InvalidArgument("attribute '" + attr.name +
                                       "' expects a categorical code");
      }
      if (row[i].code < 0 ||
          static_cast<size_t>(row[i].code) >= attr.domain_size()) {
        return Status::OutOfRange(
            "code " + std::to_string(row[i].code) +
            " outside the domain of attribute '" + attr.name + "'");
      }
    } else if (row[i].is_code) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' expects a numeric value");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_code) {
      columns_[i].AppendCode(row[i].code);
    } else {
      columns_[i].AppendValue(row[i].value);
    }
  }
  ++num_rows_;
  return Status::OK();
}

std::string Table::DisplayAt(size_t row, size_t attr) const {
  const auto& schema = schema_.attribute(attr);
  if (schema.type == AttributeType::kCategorical) {
    return schema.labels[static_cast<size_t>(CodeAt(row, attr))];
  }
  return FormatDouble(ValueAt(row, attr), 4);
}

}  // namespace fairtopk
