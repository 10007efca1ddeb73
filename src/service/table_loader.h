// Dataset preparation behind the session catalog's `open`, which both
// CLI tools start their sessions through: load a CSV, validate the
// ranking column, bucketize the remaining numeric columns so they can
// join group definitions, and expand the shared knob vocabulary (k
// range / tau) into a DetectionConfig. Kept in one place so the
// one-shot CLI, the serving tool, and catalog-opened sessions can never
// drift in how they prepare a dataset — the bound expansion itself
// lives in api/canonical.h, the same canonical codec the JSONL protocol
// and the session cache key use.
#ifndef FAIRTOPK_SERVICE_TABLE_LOADER_H_
#define FAIRTOPK_SERVICE_TABLE_LOADER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "detect/detection_result.h"
#include "relation/table.h"

namespace fairtopk {

/// Loads `csv_path` (dropping `drop` columns), checks that `rank_by`
/// names a numeric column, and bucketizes every other numeric column
/// into `bins` equal-width buckets. Errors carry the offending file or
/// column in their message.
Result<Table> LoadAuditTable(const std::string& csv_path,
                             const std::string& rank_by, int bins,
                             const std::vector<std::string>& drop);

/// Expands the shared range knobs into a DetectionConfig with the
/// shared clamping rules: k_max is capped by the dataset size (with
/// k_min dropping to 1 when the cap inverts the range) and tau
/// defaults to 5% of the rows (minimum 2) when not set. `threads`
/// becomes DetectionConfig::num_threads, which accepts only 1; the
/// catalog passes 1, and the parameter stays because perfbench calls
/// this.
DetectionConfig MakeToolConfig(int k_min, int k_max, int tau, int threads,
                               size_t num_rows);

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_TABLE_LOADER_H_
