// The unified pattern-search engine: one top-down driver over the
// search tree (Definition 4.1) shared by every detection algorithm.
//
// Two ideas collapse the previously duplicated DFS loops into this
// layer:
//
//  1. Count only what the search reads. The driver walks the tree with
//     a PatternCursor that keeps the parent's intersection, so a child
//     costs one AND against a single (attribute, value) bitset — not
//     |p| full intersections (see index/pattern_cursor.h). A child's
//     size s_D depends only on the data, so every search over an input
//     shares the input's SizeMemo (engine/size_memo.h): a size is
//     counted over the full width once per index generation, and every
//     other evaluation ANDs only the ceil(k/64) words of the top-k
//     prefix.
//
//  2. Inlined policies. Bound evaluation and reporting semantics are
//     template parameters (any callable / visitor struct), so the hot
//     loop has no type-erased std::function dispatch.
//
// Every search runs on the calling thread. One k's search takes tens
// to hundreds of microseconds, and the incremental algorithms spend
// most of their time outside full searches, so threads per search cost
// more than they save; the serving layer runs requests in parallel
// instead.
//
// Every detector runs its ks through the one per-k driver, RunPerK
// below, which collects each k's finalized violation set into the
// DetectionResult the detector returns.
//
// The incremental detectors, GLOBALBOUNDS and PROPBOUNDS, keep Res and
// DRes across ks. They walk the tree through engine/incremental_state.h
// instead, over node ids of their own run, and reconcile DRes by event:
// at each k only the entries the new tuple satisfies, or whose
// shadowing member left Res, are re-examined.
#ifndef FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_
#define FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "detect/detection_result.h"
#include "detect/engine/size_memo.h"
#include "index/bitmap_index.h"
#include "index/pattern_cursor.h"
#include "pattern/pattern.h"
#include "pattern/result_set.h"

namespace fairtopk::engine {

/// Knobs of one top-down search.
struct SearchParams {
  int size_threshold = 1;
  size_t k = 1;
};

namespace internal {

template <typename Visitor>
void DescendFrom(const BitmapIndex& index, const SearchParams& params,
                 Pattern& node, uint32_t id, size_t first_attr,
                 SizeMemo& sizes, PatternCursor& cursor, Visitor& visitor,
                 DetectionStats& stats);

/// Evaluates the node (cursor's pattern ∪ {attr = value}), whose id in
/// the input's memo is `id`: its size comes from the memo, or is counted
/// over the full width through the cursor and stored; a node smaller
/// than the size threshold is skipped (anti-monotone prune); otherwise
/// its top-k prefix is counted and the node handed to the visitor, and
/// the search descends below it iff the visitor returns true. `node` is
/// the cursor's pattern, mutated in place and restored — visitors must
/// copy the pattern if they keep it.
template <typename Visitor>
void VisitNode(const BitmapIndex& index, const SearchParams& params,
               Pattern& node, size_t attr, int16_t value, uint32_t id,
               SizeMemo& sizes, PatternCursor& cursor, Visitor& visitor,
               DetectionStats& stats) {
  ++stats.nodes_visited;
  if (cursor.depth() > 0) ++stats.cursor_reuse_hits;
  const size_t threshold = static_cast<size_t>(params.size_threshold);
  size_t size_d = sizes.size(id);
  size_t top_k = 0;
  if (size_d == SizeMemo::kUnknown) {
    cursor.ChildCounts(attr, value, &size_d, &top_k);
    sizes.set_size(id, size_d);
    ++stats.sizes_counted;
    if (size_d < threshold) return;
  } else {
    if (size_d < threshold) return;
    top_k = cursor.ChildTopK(attr, value);
  }
  node.SetValue(attr, value);
  if (visitor(node, size_d, top_k)) {
    cursor.Push(attr, value);
    DescendFrom(index, params, node, id, attr + 1, sizes, cursor, visitor,
                stats);
    cursor.Pop();
  }
  node.SetValue(attr, Pattern::kUnspecified);
}

/// Pre-order DFS below `node` (exclusive) over attributes >=
/// `first_attr`. The cursor must be positioned AT `node`, and `id` is
/// node's id in `sizes`.
template <typename Visitor>
void DescendFrom(const BitmapIndex& index, const SearchParams& params,
                 Pattern& node, uint32_t id, size_t first_attr,
                 SizeMemo& sizes, PatternCursor& cursor, Visitor& visitor,
                 DetectionStats& stats) {
  const PatternSpace& space = index.space();
  for (size_t j = first_attr; j < space.num_attributes(); ++j) {
    const int domain = space.domain_size(j);
    for (int16_t v = 0; v < domain; ++v) {
      VisitNode(index, params, node, j, v, sizes.Child(id, j, v), sizes,
                cursor, visitor, stats);
    }
  }
}

}  // namespace internal

/// Full search: drives `visitor` over every non-empty pattern in
/// pre-order, descending as the visitor decides — the node sequence
/// Algorithm 1's explicit-stack formulation would report. Its elapsed
/// time goes to stats->cpu_seconds.
template <typename Visitor>
void SequentialTopDown(const BitmapIndex& index, const SearchParams& params,
                       SizeMemo& sizes, Visitor& visitor,
                       DetectionStats* stats) {
  WallTimer timer;
  PatternCursor cursor(index, params.k);
  Pattern node = Pattern::Empty(index.space().num_attributes());
  DetectionStats local;
  internal::DescendFrom(index, params, node, SizeMemo::kRoot, 0, sizes,
                        cursor, visitor, local);
  if (stats != nullptr) {
    local.cpu_seconds = timer.ElapsedSeconds();
    stats->Merge(local);
  }
}

/// The per-k driver every detection algorithm runs through: invokes
/// `per_k(k, stats, sizes)` for each k in [config.k_min, config.k_max]
/// in ascending order and moves its finalized violation set into the
/// result. `per_k` may carry state across ks (the incremental
/// algorithms do), accumulates work counters into the passed
/// DetectionStats, and hands `sizes`, the input's size memo, to every
/// search it runs; the memo outlives the run, so later runs (and the
/// result's CountGroups) read what this one counted. `seconds` covers
/// the per_k calls only, not the final CountGroups. `config` must have
/// passed input.ValidateConfig.
template <typename PerKFn>
DetectionResult RunPerK(const DetectionInput& input,
                        const DetectionConfig& config, const PerKFn& per_k) {
  DetectionResult result(config.k_min, config.k_max);
  SizeMemo& sizes = input.sizes();
  for (int k = config.k_min; k <= config.k_max; ++k) {
    WallTimer timer;
    std::vector<Pattern> batch = per_k(k, result.stats(), sizes);
    result.stats().seconds += timer.ElapsedSeconds();
    result.MutableAtK(k) = std::move(batch);
  }
  result.CountGroups(input);
  return result;
}

namespace internal {

/// Visitor of Algorithm 1: stop descent at biased nodes (top-k count
/// strictly below the bound) and report them into `res` with
/// most-general semantics; descend through unbiased nodes.
template <typename BoundFn>
struct BelowBoundCollector {
  BoundFn bound;
  MostGeneralResultSet& res;

  bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
    if (static_cast<double>(top_k) < bound(size_d)) {
      res.Update(p);
      return false;
    }
    return true;
  }
};

}  // namespace internal

/// Algorithm 1: full top-down search from the root at a single k,
/// returning the most-general biased patterns (Res). Patterns are
/// biased when their top-k count falls strictly below `bound`, any
/// callable double(size_t size_in_d), inlined per instantiation: a
/// constant L_k for the global problem, alpha * size * k / |D| for the
/// proportional one. Shared by the ITERTD baselines and bound
/// suggestion; the incremental algorithms search through
/// engine/incremental_state.h. `sizes` is the memo of the input `index`
/// belongs to.
template <typename BoundFn>
MostGeneralResultSet MostGeneralBelow(const BitmapIndex& index,
                                      const SearchParams& params,
                                      SizeMemo& sizes, const BoundFn& bound,
                                      DetectionStats* stats) {
  MostGeneralResultSet result;
  internal::BelowBoundCollector<BoundFn> collector{bound, result};
  SequentialTopDown(index, params, sizes, collector, stats);
  return result;
}

namespace internal {

/// Visitor of the exhaustive enumeration: files every violating node
/// into `set` and always descends.
template <typename ViolatesFn, typename SetT>
struct ExhaustiveVisitor {
  ViolatesFn violates;
  SetT& set;

  bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
    if (violates(size_d, top_k)) set.Update(p);
    return true;
  }
};

}  // namespace internal

/// Exhaustive enumeration of every substantial pattern, filtering
/// violators into a result set with the semantics of `SetT`
/// (MostGeneralResultSet or MostSpecificResultSet). Violation is not
/// assumed anti-monotone, so descent never stops early. Used by the
/// upper-bound detector and the reporting-semantics variants.
template <typename SetT, typename ViolatesFn>
SetT ExhaustiveViolations(const BitmapIndex& index, const SearchParams& params,
                          SizeMemo& sizes, const ViolatesFn& violates,
                          DetectionStats* stats) {
  SetT set;
  internal::ExhaustiveVisitor<ViolatesFn, SetT> visitor{violates, set};
  SequentialTopDown(index, params, sizes, visitor, stats);
  return set;
}

}  // namespace fairtopk::engine

#endif  // FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_
