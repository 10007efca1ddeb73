#include "detect/upper_bounds.h"

#include <utility>

#include "detect/engine/search_driver.h"
#include "pattern/result_set.h"

namespace fairtopk {

namespace {

/// Exceeds-a-flat-upper-bound test, inlined into the engine's hot loop.
struct AboveConstant {
  double bound;
  bool operator()(size_t, size_t top_k) const {
    return static_cast<double>(top_k) > bound;
  }
};

/// Exceeds the proportional upper bound beta * size_d * k / n.
struct AboveLinear {
  double factor;  // beta * k / n
  bool operator()(size_t size_d, size_t top_k) const {
    return static_cast<double>(top_k) >
           factor * static_cast<double>(size_d);
  }
};

}  // namespace

Result<DetectionResult> DetectGlobalUpperBounds(
    const DetectionInput& input, const GlobalBoundSpec& bounds,
    const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        const engine::SearchParams params{config.size_threshold,
                                          static_cast<size_t>(k)};
        MostSpecificResultSet res =
            engine::ExhaustiveViolations<MostSpecificResultSet>(
                input.index(), params, sizes,
                AboveConstant{bounds.upper.At(k)}, &stats);
        return res.Sorted();
      });
}

Result<DetectionResult> DetectPropUpperBounds(const DetectionInput& input,
                                              const PropBoundSpec& bounds,
                                              const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  if (bounds.beta <= bounds.alpha) {
    return Status::InvalidArgument("beta must exceed alpha");
  }
  const double n = static_cast<double>(input.num_rows());
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        const engine::SearchParams params{config.size_threshold,
                                          static_cast<size_t>(k)};
        const double factor = bounds.beta * static_cast<double>(k) / n;
        MostSpecificResultSet res =
            engine::ExhaustiveViolations<MostSpecificResultSet>(
                input.index(), params, sizes, AboveLinear{factor}, &stats);
        return res.Sorted();
      });
}

}  // namespace fairtopk
