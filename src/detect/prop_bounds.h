// PROPBOUNDS (Algorithm 3): optimized detection under proportional
// representation bounds. Unlike the global case, the per-pattern bound
// alpha * s_D(p) * k / |D| grows with k, so a pattern left untouched by
// the newly admitted tuple can still become biased. The algorithm
// therefore maintains, per visited non-biased pattern, the minimal
// future k at which it would become biased if its top-k count stayed
// fixed (the k-tilde of Section IV-C) and stores it in a bucketed
// schedule K. Each iteration then touches only
//   (1) patterns satisfied by the newly admitted tuple (selective
//       top-down descent),
//   (2) patterns whose k-tilde fires at this k, and
//   (3) the deferred set DRes (biased patterns subsumed by a reported
//       ancestor), which is reconciled exactly as in Algorithm 3,
//       line 6.
// Because counts only grow, a stored k-tilde is always a lower bound on
// the true transition rank: stale entries fire early, are re-checked
// against fresh counts, and re-registered — never missed.
#ifndef FAIRTOPK_DETECT_PROP_BOUNDS_H_
#define FAIRTOPK_DETECT_PROP_BOUNDS_H_

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Optimized detection of groups with biased proportional
/// representation (Problem 3.2, lower bounds). Produces the same per-k
/// results as DetectPropIterTD while visiting fewer pattern nodes.
Result<DetectionResult> DetectPropBounds(const DetectionInput& input,
                                         const PropBoundSpec& bounds,
                                         const DetectionConfig& config);

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_PROP_BOUNDS_H_
