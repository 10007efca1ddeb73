#include "detect/itertd.h"

#include <utility>

#include "detect/engine/search_driver.h"

namespace fairtopk {

Result<DetectionResult> DetectGlobalIterTD(const DetectionInput& input,
                                           const GlobalBoundSpec& bounds,
                                           const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        const double lower = bounds.lower.At(k);
        const engine::SearchParams params{config.size_threshold,
                                          static_cast<size_t>(k)};
        return engine::MostGeneralBelow(input.index(), params, sizes,
                                        [lower](size_t) { return lower; },
                                        &stats)
            .Sorted();
      });
}

Result<DetectionResult> DetectPropIterTD(const DetectionInput& input,
                                         const PropBoundSpec& bounds,
                                         const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  if (bounds.alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  const size_t n = input.num_rows();
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        // Evaluate the bound through PropBoundSpec::LowerAt so every
        // algorithm (and test oracle) shares one floating-point
        // evaluation order; boundary cases like bound == count would
        // otherwise be classified inconsistently.
        const engine::SearchParams params{config.size_threshold,
                                          static_cast<size_t>(k)};
        return engine::MostGeneralBelow(
                   input.index(), params, sizes,
                   [&bounds, k, n](size_t size_d) {
                     return bounds.LowerAt(static_cast<int>(size_d), k, n);
                   },
                   &stats)
            .Sorted();
      });
}

}  // namespace fairtopk
