// GLOBALBOUNDS (Algorithm 2): optimized detection under global lower
// bounds. While the bound staircase is flat, the top-k and top-(k+1)
// prefixes differ by a single tuple, so only patterns that tuple
// satisfies can change status (Proposition 4.3); everything else is
// carried over. So each flat step recounts the members of Res the new
// tuple satisfies, searches below those that reached the bound, and
// reconciles the deferred set DRes by event: an entry is recounted only
// if the new tuple satisfies it, and offered to Res again only if a
// member above it left Res (engine/incremental_state.h, shared with
// PROPBOUNDS). When the staircase steps up, a fresh top-down search is
// issued, as in the paper.
#ifndef FAIRTOPK_DETECT_GLOBAL_BOUNDS_H_
#define FAIRTOPK_DETECT_GLOBAL_BOUNDS_H_

#include "detect/bounds.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Optimized detection of groups violating global lower bounds
/// (Problem 3.1, lower bounds). Produces the same per-k results as
/// DetectGlobalIterTD while visiting fewer pattern nodes.
Result<DetectionResult> DetectGlobalBounds(const DetectionInput& input,
                                           const GlobalBoundSpec& bounds,
                                           const DetectionConfig& config);

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_GLOBAL_BOUNDS_H_
