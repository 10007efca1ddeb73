#include "detect/prop_bounds.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "detect/engine/search_driver.h"
#include "pattern/result_set.h"

namespace fairtopk {

namespace {

/// Mutable search state shared by the helper routines below.
class PropSearch {
 public:
  PropSearch(const BitmapIndex& index, const PropBoundSpec& bounds,
             const DetectionConfig& config, engine::SizeMemo& sizes,
             DetectionStats* stats)
      : index_(index),
        space_(index.space()),
        config_(config),
        sizes_(sizes),
        stats_(stats),
        bounds_(bounds),
        alpha_(bounds.alpha),
        n_(static_cast<double>(index.num_rows())) {}

  /// Full top-down search at k_min (TopDownSearch of Algorithm 3), run
  /// through the engine: biased nodes are placed, every other node is
  /// expanded and scheduled for its k-tilde transition.
  void InitialSearch() {
    const int k = config_.k_min;
    struct InitialVisitor {
      PropSearch* s;
      int k;
      bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
        if (s->Biased(top_k, size_d, k)) {
          s->Place(p);
          return false;
        }
        s->expanded_.insert(p);
        s->RegisterKTilde(p, top_k, size_d, k);
        return true;
      }
    };
    const engine::SearchParams params{config_.size_threshold,
                                      static_cast<size_t>(k)};
    InitialVisitor visitor{this, k};
    engine::SequentialTopDown(index_, params, sizes_, visitor, stats_);
  }

  /// One incremental step: process the arrival of the tuple at rank k
  /// (0-based position k-1), fire the k-tilde schedule, and reconcile
  /// the deferred set.
  void Step(int k) {
    // (1) Selective top-down descent through patterns the new tuple
    // satisfies (selectiveTD of Algorithm 3).
    const size_t pos = static_cast<size_t>(k - 1);
    const Pattern empty = Pattern::Empty(space_.num_attributes());
    for (size_t j = 0; j < space_.num_attributes(); ++j) {
      const int16_t v = index_.RankedCode(pos, j);
      Visit(empty.With(j, v), sizes_.Child(engine::SizeMemo::kRoot, j, v), k,
            /*full=*/false);
    }

    // (2) k-tilde firings: patterns untouched by the new tuple whose
    // scheduled transition rank is k (Algorithm 3, line 6). Entries are
    // conservative (counts only grow), so each firing re-validates
    // against a fresh count and re-registers when still unbiased.
    auto bucket_it = schedule_.find(k);
    if (bucket_it != schedule_.end()) {
      std::vector<Pattern> fired = std::move(bucket_it->second);
      schedule_.erase(bucket_it);
      for (const Pattern& p : fired) {
        if (res_.Contains(p) || deferred_.count(p) > 0) continue;
        CountStat();
        const size_t size_d = sizes_.SizeOf(p, index_, stats_);
        const size_t top_k = index_.TopKCount(p, static_cast<size_t>(k));
        if (Biased(top_k, size_d, k)) {
          Place(p);
        } else {
          RegisterKTilde(p, top_k, size_d, k);
        }
      }
    }

    // (3) Reconcile the deferred set: entries whose subsuming ancestor
    // left Res are promoted; entries that stopped being biased leave
    // (their counts grew while shadowed by a biased ancestor).
    ReconcileDeferred(k);
  }

  /// Current most-general biased patterns, sorted.
  std::vector<Pattern> Snapshot() const { return res_.Sorted(); }

 private:
  void CountStat() {
    if (stats_ != nullptr) ++stats_->nodes_visited;
  }

  // Single canonical bound evaluation (PropBoundSpec::LowerAt) shared
  // with ITERTD and the test oracles, so floating-point boundary cases
  // classify identically everywhere.
  bool Biased(size_t top_k, size_t size_d, int k) const {
    return static_cast<double>(top_k) <
           bounds_.LowerAt(static_cast<int>(size_d), k, index_.num_rows());
  }

  /// Minimal k' > k with top_k < alpha * size_d * k' / n, or 0 when it
  /// lies beyond k_max (no registration needed).
  int KTilde(size_t top_k, size_t size_d, int k) const {
    const double denom = alpha_ * static_cast<double>(size_d);
    if (denom <= 0.0) return 0;
    // The estimate is capped at k_max + 1 in floating point: a tiny
    // alpha puts it beyond INT_MAX. Biased() is monotone in k', so the
    // cap changes no answer, and both loops below stay within
    // [k + 1, k_max + 1].
    const double estimate =
        std::floor(static_cast<double>(top_k) * n_ / denom) + 1.0;
    int kt = estimate > static_cast<double>(config_.k_max) + 1.0
                 ? config_.k_max + 1
                 : static_cast<int>(estimate);
    if (kt <= k) kt = k + 1;
    // Guard against floating-point rounding on the floor above.
    while (kt > k + 1 && Biased(top_k, size_d, kt - 1)) --kt;
    while (kt <= config_.k_max && !Biased(top_k, size_d, kt)) ++kt;
    return kt > config_.k_max ? 0 : kt;
  }

  void RegisterKTilde(const Pattern& p, size_t top_k, size_t size_d, int k) {
    const int kt = KTilde(top_k, size_d, k);
    if (kt != 0) schedule_[kt].push_back(p);
  }

  /// Inserts a biased pattern into Res or the deferred set with one
  /// update(Res, p), keeping the most-general invariant: evictions flow
  /// into the deferred set, a pattern shadowed by a proper ancestor is
  /// deferred, a duplicate is dropped (engine::ReportBiased's rule).
  void Place(const Pattern& p) {
    if (deferred_.count(p) > 0) return;
    UpdateOutcome update = res_.Update(p);
    if (!update.inserted) {
      if (!update.duplicate) deferred_.insert(p);
      return;
    }
    for (Pattern& evicted : update.evicted) {
      deferred_.insert(std::move(evicted));
    }
  }

  /// Evaluates `p` — node `id` of the input's memo — at iteration `k`
  /// and descends: fully when the subtree below `p` has never been
  /// explored (or `full` is set by an un-biased ancestor), selectively
  /// (new-tuple-satisfying children only) otherwise.
  void Visit(const Pattern& p, uint32_t id, int k, bool full) {
    CountStat();
    const size_t size_d = sizes_.SizeOf(id, p, index_, stats_);
    if (size_d < static_cast<size_t>(config_.size_threshold)) return;
    const size_t top_k = index_.TopKCount(p, static_cast<size_t>(k));

    if (Biased(top_k, size_d, k)) {
      Place(p);
      return;
    }

    // Not biased: make sure it is not reported, schedule its future
    // transition, and descend.
    res_.Remove(p);
    deferred_.erase(p);
    RegisterKTilde(p, top_k, size_d, k);

    const bool first_expansion = expanded_.insert(p).second;
    const bool explore_all = full || first_expansion;
    const size_t pos = static_cast<size_t>(k - 1);
    const int start = p.MaxSpecifiedIndex() + 1;
    for (size_t j = static_cast<size_t>(start); j < space_.num_attributes();
         ++j) {
      const int domain = space_.domain_size(j);
      for (int16_t v = 0; v < domain; ++v) {
        if (explore_all) {
          Visit(p.With(j, v), sizes_.Child(id, j, v), k, full);
        } else if (index_.RankedCode(pos, j) == v) {
          // Child adds predicate A_j = v; the new tuple satisfies the
          // child iff it satisfies p (it does) and carries v in A_j.
          Visit(p.With(j, v), sizes_.Child(id, j, v), k, /*full=*/false);
        }
      }
    }
  }

  /// Full engine-driven expansion below `d` mirroring Visit(·, k,
  /// full=true): used when a deferred pattern stops being biased and
  /// nothing shadows its (never-explored) subtree anymore.
  void ExpandFullyBelow(const Pattern& d, int k) {
    struct ExpandVisitor {
      PropSearch* s;
      int k;
      bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
        if (s->Biased(top_k, size_d, k)) {
          s->Place(p);
          return false;
        }
        s->res_.Remove(p);
        s->deferred_.erase(p);
        s->RegisterKTilde(p, top_k, size_d, k);
        s->expanded_.insert(p);
        return true;
      }
    };
    const engine::SearchParams params{config_.size_threshold,
                                      static_cast<size_t>(k)};
    ExpandVisitor visitor{this, k};
    engine::VisitBelowFrom(index_, params, d, sizes_, visitor, stats_);
  }

  void ReconcileDeferred(int k) {
    std::vector<Pattern> pending(deferred_.begin(), deferred_.end());
    // Deterministic order keeps promotion cascades reproducible.
    std::sort(pending.begin(), pending.end());
    for (const Pattern& d : pending) {
      if (deferred_.count(d) == 0) continue;  // already reconciled
      CountStat();
      const size_t size_d = sizes_.SizeOf(d, index_, stats_);
      const size_t top_k = index_.TopKCount(d, static_cast<size_t>(k));
      if (!Biased(top_k, size_d, k)) {
        // Stopped being biased while shadowed by a reported ancestor.
        deferred_.erase(d);
        RegisterKTilde(d, top_k, size_d, k);
        // Its subtree stays unexplored while an ancestor shadows the
        // region; expand now if nothing shadows it anymore.
        if (!res_.HasProperAncestorOf(d)) {
          expanded_.insert(d);
          ExpandFullyBelow(d, k);
        }
        continue;
      }
      // Still biased: promote unless a proper ancestor shadows it.
      UpdateOutcome update = res_.Update(d);
      if (update.inserted || update.duplicate) deferred_.erase(d);
      for (Pattern& evicted : update.evicted) {
        deferred_.insert(std::move(evicted));
      }
    }
  }

  const BitmapIndex& index_;
  const PatternSpace& space_;
  const DetectionConfig config_;
  // The input's sizes; every s_D this search reads comes from here.
  engine::SizeMemo& sizes_;
  DetectionStats* stats_;
  const PropBoundSpec bounds_;
  const double alpha_;
  const double n_;

  MostGeneralResultSet res_;
  std::unordered_set<Pattern, PatternHash> deferred_;
  // Patterns whose subtree has been explored at least once.
  std::unordered_set<Pattern, PatternHash> expanded_;
  std::unordered_map<int, std::vector<Pattern>> schedule_;
};

}  // namespace

Result<DetectionResult> DetectPropBounds(const DetectionInput& input,
                                         const PropBoundSpec& bounds,
                                         const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  if (bounds.alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  // The search state is built on the first iteration so it can bind to
  // the driver's DetectionStats (one for the whole run) and the input's
  // size memo.
  std::optional<PropSearch> search;
  return engine::RunPerK(
      input, config,
      [&](int k, DetectionStats& stats, engine::SizeMemo& sizes) {
        if (!search.has_value()) {
          search.emplace(input.index(), bounds, config, sizes, &stats);
          search->InitialSearch();
        } else {
          search->Step(k);
        }
        return search->Snapshot();
      });
}

}  // namespace fairtopk
