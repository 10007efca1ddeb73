// ServeDefaults: the per-session fallbacks applied when a JSONL
// request omits a field. Split out of jsonl_service.h so the session
// catalog (which stores one per entry) does not need the full wire
// layer.
#ifndef FAIRTOPK_SERVICE_JSONL_DEFAULTS_H_
#define FAIRTOPK_SERVICE_JSONL_DEFAULTS_H_

#include <string>

#include "api/canonical.h"
#include "detect/detection_result.h"

namespace fairtopk {

/// Per-session fallbacks applied when a request omits a field.
struct ServeDefaults {
  /// Dataset label echoed in detection reports.
  std::string dataset;
  /// k range and size threshold.
  DetectionConfig config;
  /// Bound fraction knobs (--lower / --alpha) expanded over the
  /// request's k range when explicit bounds are omitted.
  api::BoundsDefaults bounds;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_JSONL_DEFAULTS_H_
