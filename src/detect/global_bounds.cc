#include "detect/global_bounds.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "detect/engine/search_driver.h"

namespace fairtopk {

Result<DetectionResult> DetectGlobalBounds(const DetectionInput& input,
                                           const GlobalBoundSpec& bounds,
                                           const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  if (!bounds.lower.IsNonDecreasing()) {
    return Status::InvalidArgument(
        "GLOBALBOUNDS assumes non-decreasing lower bounds (footnote 3 of "
        "the paper); use DetectGlobalIterTD for arbitrary bounds");
  }
  const BitmapIndex& index = input.index();

  // Res and DRes of Algorithm 2, carried across ks by the per-k
  // closure.
  MostGeneralResultSet res;
  std::vector<Pattern> deferred;

  return engine::RunPerK(input, config,
                         [&](int k, DetectionStats& stats,
                             engine::SizeMemo& sizes)
                             -> std::vector<Pattern> {
    DetectionStats* sp = &stats;
    const double lower = bounds.lower.At(k);
    const auto flat_bound = [lower](size_t) { return lower; };
    const engine::SearchParams params{config.size_threshold,
                                      static_cast<size_t>(k)};
    if (k == config.k_min || lower != bounds.lower.At(k - 1)) {
      // Initial iteration, or the bound stepped up: restart with a
      // fresh search (Algorithm 2, line 5).
      deferred.clear();
      res = engine::MostGeneralBelow(index, params, sizes, flat_bound, sp,
                                     &deferred);
      return res.Sorted();
    }

    // The new tuple occupies rank position k-1 (0-based). With a flat
    // bound, counts only grow, so the only possible transition is
    // biased -> not biased, and only for patterns the tuple satisfies.
    const size_t new_pos = static_cast<size_t>(k - 1);

    // Phase 1: members of Res satisfied by the new tuple. Res's member
    // order is unspecified (pattern/result_set.h), so they are
    // processed in sorted order: the expansions, and with them the
    // work counters, then run in one fixed order.
    std::vector<Pattern> candidates;
    for (const Pattern& p : res.patterns()) {
      if (index.RankedRowSatisfies(p, new_pos)) candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const Pattern& p : candidates) {
      if (!res.Contains(p)) continue;  // evicted by an earlier expansion
      ++sp->nodes_visited;
      const size_t top_k = index.TopKCount(p, static_cast<size_t>(k));
      if (static_cast<double>(top_k) >= lower) {
        res.Remove(p);
        engine::MostGeneralBelowFrom(index, params, p, sizes, flat_bound,
                                     res, deferred, sp);
      }
    }

    // Phase 2: re-examine the deferred set (Algorithm 2, line 8).
    // Entries may leave (count reached the bound), be promoted into Res
    // (their subsuming ancestor left), or stay deferred. Sorted like
    // the candidates: evictions join the set in Res's member order.
    std::vector<Pattern> pending;
    pending.swap(deferred);
    std::sort(pending.begin(), pending.end());
    for (Pattern& d : pending) {
      ++sp->nodes_visited;
      const size_t top_k = index.TopKCount(d, static_cast<size_t>(k));
      if (static_cast<double>(top_k) >= lower) {
        engine::MostGeneralBelowFrom(index, params, d, sizes, flat_bound,
                                     res, deferred, sp);
        continue;
      }
      engine::ReportBiased(d, res, &deferred);
    }

    return res.Sorted();
  });
}

}  // namespace fairtopk
