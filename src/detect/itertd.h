// ITERTD: the paper's baseline (Section IV-A). Runs a fresh top-down
// search (Algorithm 1) independently for every k in [k_min, k_max].
// Serves as the executable specification against which the optimized
// algorithms are property-tested.
#ifndef FAIRTOPK_DETECT_ITERTD_H_
#define FAIRTOPK_DETECT_ITERTD_H_

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Baseline detection of groups violating global lower bounds
/// (Problem 3.1, lower bounds).
Result<DetectionResult> DetectGlobalIterTD(const DetectionInput& input,
                                           const GlobalBoundSpec& bounds,
                                           const DetectionConfig& config);

/// Baseline detection of groups with biased proportional representation
/// (Problem 3.2, lower bounds).
Result<DetectionResult> DetectPropIterTD(const DetectionInput& input,
                                         const PropBoundSpec& bounds,
                                         const DetectionConfig& config);

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_ITERTD_H_
