#include "detect/global_bounds.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "detect/engine/incremental_state.h"
#include "detect/engine/search_driver.h"

namespace fairtopk {

namespace {

using engine::IncrementalState;
using Descend = IncrementalState::Descend;

/// Algorithm 1's visitor over the run's state, at one flat bound:
/// biased nodes are reported and stop the descent; an unbiased node
/// leaves Res or DRes and is descended through.
struct BelowBound {
  IncrementalState* state;
  double lower;

  Descend operator()(IncrementalState::Id id, const Pattern& p, size_t,
                     size_t top_k, bool) {
    if (static_cast<double>(top_k) < lower) {
      state->Report(id, p);
      return Descend::kNone;
    }
    state->Unreport(id, p);
    return Descend::kAll;
  }

  // Reconcile policy: a DRes entry that reached the bound has a
  // never-searched subtree, which is searched now (searchFromNode of
  // Algorithm 2).
  bool Biased(size_t top_k, size_t) const {
    return static_cast<double>(top_k) < lower;
  }
  void OnUnbiased(IncrementalState::Id id, const Pattern& p, size_t,
                  size_t) {
    state->Search(id, p, Descend::kAll, *this);
  }
};

}  // namespace

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

  // Res and DRes of Algorithm 2, carried across ks; built on the first
  // iteration to bind to the driver's DetectionStats and the input's
  // size memo.
  std::optional<IncrementalState> state;
  return engine::RunPerK(input, config,
                         [&](int k, DetectionStats& stats,
                             engine::SizeMemo& sizes) {
    if (!state.has_value()) {
      state.emplace(index, sizes, config.size_threshold, config.k_max,
                    &stats);
    }
    state->BeginStep(k);
    const double lower = bounds.lower.At(k);
    BelowBound visitor{&*state, lower};
    if (k == config.k_min || lower != bounds.lower.At(k - 1)) {
      // Initial iteration, or the bound stepped up: restart with a
      // fresh search (Algorithm 2, line 5).
      state->Clear();
      state->FullSearch(Descend::kAll, visitor);
      return state->Snapshot();
    }

    // The new tuple occupies rank position k-1 (0-based). With a flat
    // bound, counts only grow, so the only possible transition is
    // biased -> not biased, and only for patterns the tuple satisfies.
    const size_t new_pos = static_cast<size_t>(k - 1);

    // Phase 1: members of Res satisfied by the new tuple. Res's member
    // order is unspecified (pattern/result_set.h), so they are
    // processed in sorted order: the searches, and with them the work
    // counters, then run in one fixed order. A member that reached the
    // bound leaves Res, which the reconcile below answers as an event.
    std::vector<Pattern> candidates;
    for (const Pattern& p : state->res().patterns()) {
      if (index.RankedRowSatisfies(p, new_pos)) candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const Pattern& p : candidates) {
      const IncrementalState::Id id = state->Find(p);
      if (!state->InRes(id)) continue;  // evicted by an earlier search
      if (static_cast<double>(state->CountAt(id)) >= lower) {
        state->Unreport(id, p);
        state->Search(id, p, Descend::kAll, visitor);
      }
    }

    // Phase 2: re-examine the deferred set (Algorithm 2, line 8), by
    // event.
    state->Reconcile(visitor);
    return state->Snapshot();
  });
}

}  // namespace fairtopk
