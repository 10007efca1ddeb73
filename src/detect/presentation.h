// Result presentation helpers (Section III: "A user-friendly interface
// would organize the output by k value and rank the groups by their
// overall size in the data or by the bias in their representation").
#ifndef FAIRTOPK_DETECT_PRESENTATION_H_
#define FAIRTOPK_DETECT_PRESENTATION_H_

#include <string>
#include <vector>

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// A reported group annotated with the quantities an analyst reads.
struct ReportedGroup {
  Pattern pattern;
  size_t size_in_d = 0;
  size_t size_in_topk = 0;
  /// The bound the group violated at this k.
  double required = 0.0;
  /// required - size_in_topk (positive for under-representation).
  double bias() const { return required - static_cast<double>(size_in_topk); }
};

/// Ordering for reported groups.
enum class GroupOrder {
  kBySizeDesc,  ///< largest groups first
  kByBiasDesc,  ///< most biased groups first
};

/// Annotates the patterns reported at `k` under global bounds and
/// sorts them by `order`. Sizes and top-k counts are the ones stored in
/// `result` (DetectionResult::CountsAtK), taken under the ranking it was
/// detected on.
std::vector<ReportedGroup> AnnotateGlobal(const DetectionResult& result,
                                          const GlobalBoundSpec& bounds,
                                          int k, GroupOrder order);

/// Annotates the patterns reported at `k` under proportional bounds and
/// sorts them by `order`. Counts and |D| come from `result`, as in
/// AnnotateGlobal.
std::vector<ReportedGroup> AnnotateProp(const DetectionResult& result,
                                        const PropBoundSpec& bounds, int k,
                                        GroupOrder order);

/// Renders an annotated report as an aligned text table.
std::string RenderReport(const std::vector<ReportedGroup>& groups,
                         const PatternSpace& space, int k);

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_PRESENTATION_H_
