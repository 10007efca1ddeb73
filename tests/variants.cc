#include "variants.h"

#include "detect/engine/search_driver.h"
#include "pattern/result_set.h"

namespace fairtopk {

namespace {

// Per-node violation tests, inlined into the engine's hot loop (one
// instantiation per policy — no type-erased dispatch). The proportional
// policies evaluate through PropBoundSpec::LowerAt/UpperAt so boundary
// cases classify exactly as in the optimized algorithms and the oracle.

struct BelowGlobal {
  double bound;
  bool operator()(size_t, size_t top_k) const {
    return static_cast<double>(top_k) < bound;
  }
};

struct AboveGlobal {
  double bound;
  bool operator()(size_t, size_t top_k) const {
    return static_cast<double>(top_k) > bound;
  }
};

struct BelowProp {
  const PropBoundSpec* bounds;
  int k;
  size_t n;
  bool operator()(size_t size_d, size_t top_k) const {
    return static_cast<double>(top_k) <
           bounds->LowerAt(static_cast<int>(size_d), k, n);
  }
};

struct AboveProp {
  const PropBoundSpec* bounds;
  int k;
  size_t n;
  bool operator()(size_t size_d, size_t top_k) const {
    return static_cast<double>(top_k) >
           bounds->UpperAt(static_cast<int>(size_d), k, n);
  }
};

/// Enumerates every substantial pattern at each k through the engine
/// and reports violators under the chosen semantics;
/// `make_violates(k)` builds the per-k violation policy.
template <typename MakeViolates>
Result<DetectionResult> RunVariant(const DetectionInput& input,
                                   const DetectionConfig& config,
                                   const MakeViolates& make_violates,
                                   ReportingSemantics semantics) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        const engine::SearchParams params{config.size_threshold,
                                          static_cast<size_t>(k)};
        if (semantics == ReportingSemantics::kMostGeneral) {
          return engine::ExhaustiveViolations<MostGeneralResultSet>(
                     input.index(), params, sizes, make_violates(k), &stats)
              .Sorted();
        }
        return engine::ExhaustiveViolations<MostSpecificResultSet>(
                   input.index(), params, sizes, make_violates(k), &stats)
            .Sorted();
      });
}

}  // namespace

Result<DetectionResult> DetectGlobalVariant(const DetectionInput& input,
                                            const GlobalBoundSpec& bounds,
                                            const DetectionConfig& config,
                                            ViolationSide side,
                                            ReportingSemantics semantics) {
  if (side == ViolationSide::kBelowLower) {
    return RunVariant(
        input, config,
        [&bounds](int k) { return BelowGlobal{bounds.lower.At(k)}; },
        semantics);
  }
  return RunVariant(
      input, config,
      [&bounds](int k) { return AboveGlobal{bounds.upper.At(k)}; },
      semantics);
}

Result<DetectionResult> DetectPropVariant(const DetectionInput& input,
                                          const PropBoundSpec& bounds,
                                          const DetectionConfig& config,
                                          ViolationSide side,
                                          ReportingSemantics semantics) {
  if (side == ViolationSide::kBelowLower && bounds.alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  if (side == ViolationSide::kAboveUpper && bounds.beta <= bounds.alpha) {
    return Status::InvalidArgument("beta must exceed alpha");
  }
  const size_t n = input.num_rows();
  if (side == ViolationSide::kBelowLower) {
    return RunVariant(
        input, config,
        [&bounds, n](int k) { return BelowProp{&bounds, k, n}; }, semantics);
  }
  return RunVariant(
      input, config,
      [&bounds, n](int k) { return AboveProp{&bounds, k, n}; }, semantics);
}

}  // namespace fairtopk
