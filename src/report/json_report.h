// JSON export of detection results and group explanations, so audits
// can feed dashboards and downstream tooling. Schemas are stable and
// documented on each function.
#ifndef FAIRTOPK_REPORT_JSON_REPORT_H_
#define FAIRTOPK_REPORT_JSON_REPORT_H_

#include <string>

#include "detect/bounds.h"
#include "detect/detection_result.h"
#include "explain/group_explainer.h"

namespace fairtopk {

/// Context describing a detection run for serialization.
struct ReportContext {
  std::string dataset;
  /// "global" or "proportional".
  std::string measure;
  /// Algorithm used ("IterTD", "GlobalBounds", "PropBounds", ...).
  std::string algorithm;
};

/// Serializes per-k detection results:
/// {
///   "dataset": ..., "measure": ..., "algorithm": ...,
///   "k_min": int, "k_max": int,
///   "stats": {"nodes_visited": int, "cursor_reuse_hits": int,
///             "sizes_counted": int,   // full-width size counts in
///                                     // this run (0 on a warm input)
///             "reexaminations_skipped": int,  // deferred-set entries
///                                     // GlobalBounds/PropBounds did
///                                     // not re-evaluate (0 otherwise)
///             "seconds": double,      // elapsed wall-clock
///             "cpu_seconds": double}, // of which in full searches
///   "results": [
///     {"k": int, "groups": [
///        {"pattern": {"Attr": "value", ...},
///         "size": int, "top_k_count": int}, ...]}, ...]
/// }
/// `size` and `top_k_count` are the counts stored in the result, i.e.
/// taken under the ranking the detection ran on; this only formats
/// (no index reads, no locks). Aborts on a result without stored
/// counts — every detector entry point returns one with them.
std::string DetectionResultToJson(const DetectionResult& result,
                                  const PatternSpace& space,
                                  const ReportContext& context);

/// As above, labeling patterns through `input.space()`.
std::string DetectionResultToJson(const DetectionResult& result,
                                  const DetectionInput& input,
                                  const ReportContext& context);

/// Serializes a group explanation:
/// {
///   "pattern": {...},
///   "effects": [{"attribute": str, "mean_shapley": double}, ...],
///   "top_attribute_distribution": {
///     "attribute": str,
///     "bins": [{"label": str, "top_k": double, "group": double}, ...]}
/// }
std::string ExplanationToJson(const GroupExplanation& explanation,
                              const PatternSpace& space);

/// Serializes one pattern as {"Attr": "value", ...}.
std::string PatternToJson(const Pattern& pattern, const PatternSpace& space);

}  // namespace fairtopk

#endif  // FAIRTOPK_REPORT_JSON_REPORT_H_
