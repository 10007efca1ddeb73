#include "relation/bucketize.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/strings.h"

namespace fairtopk {

Result<std::vector<double>> BucketBoundaries(
    const std::vector<double>& values, int bins, BucketStrategy strategy) {
  if (bins < 2) {
    return Status::InvalidArgument("bucketization requires bins >= 2");
  }
  if (values.empty()) {
    return Status::InvalidArgument("cannot bucketize an empty column");
  }
  std::vector<double> boundaries;
  boundaries.reserve(static_cast<size_t>(bins) - 1);
  if (strategy == BucketStrategy::kEqualWidth) {
    auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
    double lo = *min_it;
    double hi = *max_it;
    double width = (hi - lo) / bins;
    for (int b = 1; b < bins; ++b) {
      boundaries.push_back(lo + width * b);
    }
  } else {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (int b = 1; b < bins; ++b) {
      double q = static_cast<double>(b) / bins;
      size_t idx = static_cast<size_t>(
          std::min<double>(std::floor(q * static_cast<double>(sorted.size())),
                           static_cast<double>(sorted.size() - 1)));
      boundaries.push_back(sorted[idx]);
    }
  }
  return boundaries;
}

int BucketOf(double value, const std::vector<double>& boundaries) {
  int bucket = 0;
  for (double b : boundaries) {
    if (value >= b) ++bucket;
  }
  return bucket;
}

namespace {

std::vector<std::string> BucketLabels(const std::vector<double>& boundaries) {
  std::vector<std::string> labels;
  const size_t bins = boundaries.size() + 1;
  for (size_t b = 0; b < bins; ++b) {
    std::string lo = b == 0 ? "-inf" : FormatDouble(boundaries[b - 1], 2);
    std::string hi =
        b == bins - 1 ? "+inf" : FormatDouble(boundaries[b], 2);
    labels.push_back("[" + lo + ", " + hi + ")");
  }
  return labels;
}

}  // namespace

Result<Table> BucketizeNumeric(
    Table table, const std::function<bool(const AttributeSchema&)>& pick,
    int bins, BucketStrategy strategy, std::string* failed) {
  const Schema& source = table.schema();
  std::vector<Column> columns = std::move(table).ReleaseColumns();
  Schema schema;
  for (size_t c = 0; c < source.size(); ++c) {
    const AttributeSchema& attr = source.attribute(c);
    Status added;
    if (attr.type == AttributeType::kCategorical) {
      added = schema.AddCategorical(attr.name, attr.labels);
    } else if (!pick(attr)) {
      added = schema.AddNumeric(attr.name);
    } else {
      const std::vector<double>& values = columns[c].values();
      Result<std::vector<double>> boundaries =
          BucketBoundaries(values, bins, strategy);
      added = boundaries.ok()
                  ? schema.AddCategorical(attr.name,
                                          BucketLabels(*boundaries))
                  : boundaries.status();
      if (added.ok()) {
        std::vector<int16_t> codes(values.size());
        for (size_t r = 0; r < values.size(); ++r) {
          codes[r] = static_cast<int16_t>(BucketOf(values[r], *boundaries));
        }
        columns[c] = Column::Categorical(std::move(codes));
      }
    }
    if (!added.ok()) {
      if (failed != nullptr) *failed = attr.name;
      return added;
    }
  }
  return Table::FromColumns(std::move(schema), std::move(columns));
}

Result<Table> BucketizeAttribute(const Table& table, const std::string& name,
                                 int bins, BucketStrategy strategy) {
  auto idx = table.schema().IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound("attribute '" + name + "' not in schema");
  }
  if (table.schema().attribute(*idx).type != AttributeType::kNumeric) {
    return Status::InvalidArgument("attribute '" + name +
                                   "' is not numeric");
  }
  return BucketizeNumeric(
      table, [&name](const AttributeSchema& attr) { return attr.name == name; },
      bins, strategy);
}

Result<Table> BucketizeAllNumeric(const Table& table, int bins,
                                  BucketStrategy strategy) {
  return BucketizeNumeric(
      table, [](const AttributeSchema&) { return true; }, bins, strategy);
}

}  // namespace fairtopk
