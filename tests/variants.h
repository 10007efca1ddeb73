// Alternative reporting semantics (Section III, "Upper bounds" remark:
// "our solutions can be adjusted to support such problem definition
// (and other definitions such as most general for upper bound, and the
// most specific for lower bound)").
//
// A variant is a violation side (below the lower bound / above the
// upper bound) combined with reporting semantics (most general / most
// specific substantial). The canonical pairs have dedicated optimized
// algorithms (GLOBALBOUNDS/PROPBOUNDS for lower+most-general,
// DetectGlobalUpperBounds for upper+most-specific); this module covers
// the full matrix via exhaustive enumeration of substantial patterns,
// trading speed for generality. No front end reports these variants:
// the module is the tests' oracle for reporting semantics, compiled
// into the suites that call it (tests/CMakeLists.txt).
#ifndef FAIRTOPK_TESTS_VARIANTS_H_
#define FAIRTOPK_TESTS_VARIANTS_H_

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Which side of the bounds a reported group violates.
enum class ViolationSide {
  kBelowLower,
  kAboveUpper,
};

/// Which extremal subset of the violating patterns is reported.
enum class ReportingSemantics {
  kMostGeneral,
  kMostSpecific,
};

/// Detects violating groups under global bounds with the requested
/// semantics. (kBelowLower, kMostGeneral) is result-equivalent to
/// DetectGlobalIterTD; (kAboveUpper, kMostSpecific) to
/// DetectGlobalUpperBounds — both are property-tested.
Result<DetectionResult> DetectGlobalVariant(const DetectionInput& input,
                                            const GlobalBoundSpec& bounds,
                                            const DetectionConfig& config,
                                            ViolationSide side,
                                            ReportingSemantics semantics);

/// Proportional analogue; kBelowLower tests against alpha, kAboveUpper
/// against beta.
Result<DetectionResult> DetectPropVariant(const DetectionInput& input,
                                          const PropBoundSpec& bounds,
                                          const DetectionConfig& config,
                                          ViolationSide side,
                                          ReportingSemantics semantics);

}  // namespace fairtopk

#endif  // FAIRTOPK_TESTS_VARIANTS_H_
