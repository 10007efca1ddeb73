// Bucketization of continuous attributes into categorical ranges.
//
// Section II-A: "To include attribute values drawn from a continuous
// domain in the group definition, we render them categorical by
// bucketizing them into ranges". Section VI-A bucketizes continuous
// attributes such as age "equally into 3-4 bins".
//
// Every bucketizing path goes through BucketizeNumeric: it turns the
// chosen numeric columns into bucket codes, one pass each, and builds
// the result once with Table::FromColumns. The columns it does not
// bucketize are moved, never copied, so a caller that hands over its
// table (the audit loader) pays for no copy at all.
#ifndef FAIRTOPK_RELATION_BUCKETIZE_H_
#define FAIRTOPK_RELATION_BUCKETIZE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace fairtopk {

/// How bucket boundaries are chosen.
enum class BucketStrategy {
  kEqualWidth,  ///< equal-width bins over [min, max]
  kQuantile,    ///< equal-frequency bins (approximate on ties)
};

/// Computes `bins` bucket boundaries for `values` under `strategy`.
/// Returns bins-1 interior cut points, sorted ascending (boundaries may
/// coincide when the data has heavy ties). Requires bins >= 2 and a
/// non-empty value set.
Result<std::vector<double>> BucketBoundaries(const std::vector<double>& values,
                                             int bins,
                                             BucketStrategy strategy);

/// Returns the bucket index of `value` given interior `boundaries`
/// (value < boundaries[0] -> 0, ..., value >= boundaries.back() -> last).
int BucketOf(double value, const std::vector<double>& boundaries);

/// Returns `table` with every numeric attribute that `pick` selects
/// replaced, at its position, by a categorical attribute with `bins`
/// range labels ("[lo, hi)"). The failure of the first attribute that
/// cannot be bucketized is returned as is, and `failed`, when
/// non-null, receives its name.
Result<Table> BucketizeNumeric(
    Table table, const std::function<bool(const AttributeSchema&)>& pick,
    int bins, BucketStrategy strategy, std::string* failed = nullptr);

/// Returns a copy of `table` in which numeric attribute `name` is
/// replaced by a categorical attribute with `bins` range labels
/// ("[lo, hi)"). Fails if the attribute is missing or not numeric.
Result<Table> BucketizeAttribute(const Table& table, const std::string& name,
                                 int bins, BucketStrategy strategy);

/// Bucketizes every numeric attribute of `table` into `bins` buckets.
Result<Table> BucketizeAllNumeric(const Table& table, int bins,
                                  BucketStrategy strategy);

}  // namespace fairtopk

#endif  // FAIRTOPK_RELATION_BUCKETIZE_H_
