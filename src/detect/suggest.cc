#include "detect/suggest.h"

#include <algorithm>
#include <cmath>

#include "detect/engine/search_driver.h"

namespace fairtopk {

namespace {

/// Builds the L_k = round(level * k) staircase with steps every 10
/// ranks across [k_min, k_max].
GlobalBoundSpec StaircaseFor(double level, int k_min, int k_max) {
  std::vector<std::pair<int, double>> steps;
  const int first = std::min(k_min, 10);
  for (int start = first; start <= k_max; start += 10) {
    steps.emplace_back(start, std::round(level * start));
  }
  if (steps.empty()) {
    steps.emplace_back(k_min, std::round(level * k_min));
  }
  GlobalBoundSpec spec;
  // Starts are strictly increasing by construction.
  spec.lower = *StepFunction::FromSteps(std::move(steps));
  return spec;
}

/// Number of most-general groups reported at k_max for a bound (any
/// callable double(size_t size_in_d)).
template <typename BoundFn>
size_t GroupsAt(const DetectionInput& input, int tau, int k,
                const BoundFn& bound) {
  const engine::SearchParams params{tau, static_cast<size_t>(k)};
  return engine::MostGeneralBelow(input.index(), params, input.sizes(), bound,
                                  nullptr)
      .size();
}

/// Candidate selection shared by both measures. The reported-group
/// count is NOT monotone in bound strictness (the most-general filter
/// can collapse many deep violations into a few broad ones), so every
/// level is evaluated and the most informative one within budget wins:
/// the largest group count not exceeding the budget, ties broken
/// toward the stricter level. When no level fits the budget, the
/// level minimizing the count is returned (and the caller can see the
/// overshoot in the reported count).
struct LevelChoice {
  double level = 0.0;
  size_t groups = 0;
};

template <typename CountFn>
LevelChoice ChooseLevel(int search_steps, size_t max_groups,
                        const CountFn& count_at) {
  LevelChoice best_within{0.0, 0};
  bool have_within = false;
  LevelChoice best_overall{0.0, SIZE_MAX};
  for (int step = search_steps; step >= 1; --step) {
    const double level =
        static_cast<double>(step) / static_cast<double>(search_steps);
    const size_t groups = count_at(level);
    if (groups < best_overall.groups) best_overall = {level, groups};
    if (groups <= max_groups) {
      // Prefer more reported groups (more informative), then the
      // stricter level (loop order visits stricter levels first).
      if (!have_within || groups > best_within.groups) {
        best_within = {level, groups};
        have_within = true;
      }
    }
  }
  return have_within ? best_within : best_overall;
}

}  // namespace

Result<SuggestedParameters> SuggestParameters(const DetectionInput& input,
                                              const DetectionConfig& config,
                                              const SuggestOptions& options) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(
      {config.k_min, config.k_max, std::max(1, options.min_size_threshold)}));
  if (options.max_groups == 0 || options.search_steps < 2) {
    return Status::InvalidArgument("invalid suggestion options");
  }
  if (options.size_fraction <= 0.0 || options.size_fraction >= 1.0) {
    return Status::InvalidArgument("size_fraction must be in (0, 1)");
  }

  SuggestedParameters out;
  out.size_threshold = std::max(
      options.min_size_threshold,
      static_cast<int>(options.size_fraction *
                       static_cast<double>(input.num_rows())));

  // Global bounds: levels are fractions of k, L_k = round(level * k).
  LevelChoice global = ChooseLevel(
      options.search_steps, options.max_groups, [&](double level) {
        GlobalBoundSpec candidate =
            StaircaseFor(level, config.k_min, config.k_max);
        const double bound = candidate.lower.At(config.k_max);
        return GroupsAt(input, out.size_threshold, config.k_max,
                        [bound](size_t) { return bound; });
      });
  out.global_level = global.level;
  out.global_bounds =
      StaircaseFor(global.level, config.k_min, config.k_max);
  out.groups_at_kmax_global = global.groups;

  // Proportional alpha.
  const size_t n = input.num_rows();
  LevelChoice prop = ChooseLevel(
      options.search_steps, options.max_groups, [&](double alpha) {
        PropBoundSpec spec;
        spec.alpha = alpha;
        const int k = config.k_max;
        return GroupsAt(input, out.size_threshold, k,
                        [&spec, k, n](size_t size_d) {
                          return spec.LowerAt(static_cast<int>(size_d), k, n);
                        });
      });
  out.alpha = prop.level;
  out.groups_at_kmax_prop = prop.groups;
  return out;
}

}  // namespace fairtopk
