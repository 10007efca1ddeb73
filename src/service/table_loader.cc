#include "service/table_loader.h"

#include <algorithm>
#include <utility>

#include "relation/bucketize.h"
#include "relation/csv.h"

namespace fairtopk {

Result<Table> LoadAuditTable(const std::string& csv_path,
                             const std::string& rank_by, int bins,
                             const std::vector<std::string>& drop) {
  CsvOptions csv_options;
  csv_options.drop = drop;
  CsvParseInfo parse_info;
  Result<Table> raw = ReadCsvFile(csv_path, csv_options, &parse_info);
  if (!raw.ok()) {
    return Status(raw.status().code(), "failed to read " + csv_path + ": " +
                                           raw.status().message());
  }
  auto rank_idx = raw->schema().IndexOf(rank_by);
  if (!rank_idx.has_value()) {
    return Status::InvalidArgument("rank-by column '" + rank_by +
                                   "' not in " + csv_path);
  }
  if (raw->schema().attribute(*rank_idx).type != AttributeType::kNumeric) {
    // Point at the exact field that flipped the column to categorical —
    // usually a stray header repeat or a placeholder like "N/A".
    std::string detail;
    if (const auto* f = parse_info.FindNonNumeric(rank_by)) {
      detail = ": value '" + f->value + "' at line " +
               std::to_string(f->line) + " is not a number";
    }
    return Status::InvalidArgument("rank-by column '" + rank_by +
                                   "' of " + csv_path + " is not numeric" +
                                   detail);
  }
  // Every numeric column but the ranking one joins group definitions
  // as buckets; the table is handed over, so no column is copied.
  std::string failed;
  Result<Table> table = BucketizeNumeric(
      std::move(raw).value(),
      [&rank_by](const AttributeSchema& attr) { return attr.name != rank_by; },
      bins, BucketStrategy::kEqualWidth, &failed);
  if (!table.ok()) {
    return Status(table.status().code(), "bucketization of '" + failed +
                                             "' failed: " +
                                             table.status().message());
  }
  return table;
}

DetectionConfig MakeToolConfig(int k_min, int k_max, int tau, int threads,
                               size_t num_rows) {
  DetectionConfig config;
  const int n = static_cast<int>(num_rows);
  config.k_min = k_min;
  config.k_max = std::min(k_max, n);
  if (config.k_min > config.k_max) config.k_min = 1;
  config.size_threshold = tau > 0 ? tau : std::max(2, n / 20);
  config.num_threads = threads;
  return config;
}

}  // namespace fairtopk
