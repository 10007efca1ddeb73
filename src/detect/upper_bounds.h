// Upper-bound detection (the "Upper bounds" extension of Section III).
//
// For over-representation the most informative reports are the most
// specific patterns: if black females exceed the upper bound then so do
// blacks and females, so reporting the intersectional group carries the
// information. Following the paper, a pattern is reported when it is
// substantial (size >= tau_s), its top-k count exceeds the upper bound,
// and no substantial proper specialization also exceeds the bound.
#ifndef FAIRTOPK_DETECT_UPPER_BOUNDS_H_
#define FAIRTOPK_DETECT_UPPER_BOUNDS_H_

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Detects, for each k, the most specific substantial patterns whose
/// top-k count strictly exceeds the global upper bound U_k.
Result<DetectionResult> DetectGlobalUpperBounds(const DetectionInput& input,
                                                const GlobalBoundSpec& bounds,
                                                const DetectionConfig& config);

/// Proportional variant: reports the most specific substantial patterns
/// with s_Rk(p) > beta * s_D(p) * k / |D|.
Result<DetectionResult> DetectPropUpperBounds(const DetectionInput& input,
                                              const PropBoundSpec& bounds,
                                              const DetectionConfig& config);

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_UPPER_BOUNDS_H_
