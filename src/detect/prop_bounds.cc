#include "detect/prop_bounds.h"

#include <cmath>
#include <optional>
#include <vector>

#include "detect/engine/incremental_state.h"
#include "detect/engine/search_driver.h"

namespace fairtopk {

namespace {

using engine::IncrementalState;
using Descend = IncrementalState::Descend;

/// Algorithm 3's state: the engine's per-run state plus the bound.
class PropSearch {
 public:
  PropSearch(const BitmapIndex& index, const PropBoundSpec& bounds,
             const DetectionConfig& config, engine::SizeMemo& sizes,
             DetectionStats* stats)
      : index_(index),
        config_(config),
        bounds_(bounds),
        n_(static_cast<double>(index.num_rows())),
        state_(index, sizes, config.size_threshold, config.k_max, stats) {}

  /// Full top-down search at k_min (TopDownSearch of Algorithm 3):
  /// biased nodes are placed, every other node is expanded and
  /// scheduled for its k-tilde transition.
  void InitialSearch() {
    state_.BeginStep(config_.k_min);
    Visitor visitor{this};
    state_.FullSearch(Descend::kFull, visitor);
  }

  /// One incremental step: process the arrival of the tuple at rank k
  /// (0-based position k-1), fire the k-tilde schedule, and reconcile
  /// the deferred set.
  void Step(int k) {
    state_.BeginStep(k);
    // (1) Selective top-down descent through patterns the new tuple
    // satisfies (selectiveTD of Algorithm 3).
    Visitor visitor{this};
    state_.Search(IncrementalState::kRoot, Pattern::Empty(NumAttributes()),
                  Descend::kSatisfying, visitor);

    // (2) k-tilde firings: patterns untouched by the new tuple whose
    // scheduled transition rank is k (Algorithm 3, line 6). Entries are
    // conservative (counts only grow), so each firing re-validates
    // against a fresh count and re-registers when still unbiased.
    state_.FireDue([this](IncrementalState::Id id) {
      const size_t size_d = state_.size(id);
      const size_t top_k = state_.CountAt(id);
      if (Biased(top_k, size_d)) {
        state_.PatternOf(id, &fired_);
        state_.Report(id, fired_);
      } else {
        RegisterKTilde(id, top_k, size_d);
      }
    });

    // (3) Reconcile the deferred set by event: entries the new tuple
    // satisfies are recounted, entries whose shadowing ancestor left
    // Res are promoted.
    state_.Reconcile(*this);
  }

  /// Current most-general biased patterns, sorted.
  std::vector<Pattern> Snapshot() { return state_.Snapshot(); }

  // Reconcile policy.
  bool Biased(size_t top_k, size_t size_d) const {
    // Single canonical bound evaluation (PropBoundSpec::LowerAt) shared
    // with ITERTD and the test oracles, so floating-point boundary
    // cases classify identically everywhere.
    return Biased(top_k, size_d, state_.k());
  }

  /// A deferred pattern stopped being biased while a reported ancestor
  /// shadows it: it is scheduled, and the subtree below it, which no
  /// walk entered while it was biased, is expanded now, shadowed or
  /// not. Left for later, it would stay unexplored once the shadow
  /// lifts: the descent then revisits only the children the new tuple
  /// satisfies, and the groups below would be missed.
  void OnUnbiased(IncrementalState::Id id, const Pattern& p, size_t top_k,
                  size_t size_d) {
    RegisterKTilde(id, top_k, size_d);
    Visitor visitor{this};
    state_.Search(id, p, Descend::kFull, visitor);
  }

 private:
  /// Evaluates a node at the current k: a biased one is placed; an
  /// unbiased one leaves Res or DRes, is scheduled for its transition,
  /// and is descended fully when the subtree below it has never been
  /// explored (or `full` is set by an un-biased ancestor), selectively
  /// (new-tuple-satisfying children only) otherwise.
  struct Visitor {
    PropSearch* s;
    Descend operator()(IncrementalState::Id id, const Pattern& p,
                       size_t size_d, size_t top_k, bool full) {
      if (s->Biased(top_k, size_d)) {
        s->state_.Report(id, p);
        return Descend::kNone;
      }
      s->state_.Unreport(id, p);
      s->RegisterKTilde(id, top_k, size_d);
      if (full) return Descend::kFull;
      return s->state_.Expanded(id) ? Descend::kSatisfying : Descend::kAll;
    }
  };

  size_t NumAttributes() const { return index_.space().num_attributes(); }

  bool Biased(size_t top_k, size_t size_d, int k) const {
    return static_cast<double>(top_k) <
           bounds_.LowerAt(static_cast<int>(size_d), k, index_.num_rows());
  }

  /// Minimal k' > k with top_k < alpha * size_d * k' / n, or 0 when it
  /// lies beyond k_max (no registration needed).
  int KTilde(size_t top_k, size_t size_d, int k) const {
    const double denom = bounds_.alpha * static_cast<double>(size_d);
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

  void RegisterKTilde(IncrementalState::Id id, size_t top_k, size_t size_d) {
    state_.Schedule(id, KTilde(top_k, size_d, state_.k()));
  }

  const BitmapIndex& index_;
  const DetectionConfig config_;
  const PropBoundSpec bounds_;
  const double n_;
  IncrementalState state_;
  Pattern fired_;
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
