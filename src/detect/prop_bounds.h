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
//   (3) the entries of the deferred set DRes (biased patterns subsumed
//       by a reported ancestor) that can have changed (Algorithm 3,
//       line 6): those the new tuple satisfies, which are recounted,
//       and those below a reported group that (1) removed, which are
//       offered to Res again. Every other entry is still biased and
//       still shadowed, so it is skipped (the event-driven reconcile of
//       engine/incremental_state.h, shared with GLOBALBOUNDS).
// Because counts only grow, a stored k-tilde is always a lower bound on
// the true transition rank: stale entries fire early, are re-checked
// against fresh counts, and re-registered — never missed.
//
// The run's state is keyed by node ids the run assigns itself (flags,
// stamped counts, the schedule as one vector of ids per k); the only
// Patterns it builds are Res's.
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
