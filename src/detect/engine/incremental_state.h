// IncrementalState: the per-run search state of the incremental
// detectors, GLOBALBOUNDS (Algorithm 2) and PROPBOUNDS (Algorithm 3),
// and the one event-driven reconcile of the deferred set both run at
// every k.
//
// Node ids. A run numbers the search-tree nodes (Definition 4.1) it
// evaluates itself, in a trie laid out like the input's SizeMemo: the
// children of a node get one block of slots the first time any of them
// is looked up, and a slot holds the child's id, or marks a child below
// the size threshold, which gets no state at all. So per-run memory
// grows with the nodes the run evaluates, not with the memo, and a node
// beyond the memo's budget (SizeMemo::kUnstored) needs no other path:
// its size is counted once, on its first evaluation, and kept here.
//
// Per node the state keeps s_D, the top-k count stamped with the k it
// was taken at, the k of its live schedule entry (PROPBOUNDS' k-tilde),
// and flags: expanded (a walk descended below it), in Res, in DRes. A
// later count adds only the tuples ranked since the stamp: one AND of
// the node's predicate bitsets over the words between the two prefixes.
// Res (MostGeneralResultSet) holds the only Patterns a run builds,
// since it reports them; DRes is a flat vector of (id, signature).
//
// Walks. Every search goes through one top-down walker over these ids
// with a PatternCursor and one mutable pattern, as the engine's
// SequentialTopDown does over memo ids. Its visitor decides how the
// walk continues below each node: not at all, into the children that
// add the step's new tuple's value, or into every child.
//
// Event-driven reconcile. Within an incremental step both bounds are
// non-decreasing in k (GLOBALBOUNDS restarts when its staircase steps
// up; alpha * s_D * k / |D| grows with k), and a group's top-k count
// grows only when a tuple that satisfies it arrives. So a DRes entry
// can change at step k only if
//   (a) the tuple at rank k satisfies it: it is recounted, and leaves
//       DRes when it stopped being biased; or
//   (b) a Res member above it was removed during the step: it is
//       offered to Res again.
// Every other entry is still biased and still shadowed (an eviction
// always leaves a more general member in Res), so its re-examination is
// skipped and counted in DetectionStats::reexaminations_skipped.
// Removals happen before the reconcile, in the detector's own pass over
// the new tuple, and are carried into it as events. A removal made by
// the reconcile itself (a walk below an entry that stopped being biased
// meets a Res member that no longer is) is an event too: the pass then
// repeats for the entries below it, whatever order it met them in,
// until no event is left.
#ifndef FAIRTOPK_DETECT_ENGINE_INCREMENTAL_STATE_H_
#define FAIRTOPK_DETECT_ENGINE_INCREMENTAL_STATE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
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

class IncrementalState {
 public:
  using Id = uint32_t;
  /// Id of the empty pattern.
  static constexpr Id kRoot = 0;

  /// How a walk continues below a node its visitor evaluated.
  enum class Descend : uint8_t {
    kNone,        ///< not at all
    kSatisfying,  ///< into the children (node ∪ {A_j = t_j}), t the new
                  ///< tuple, each evaluated with full = false
    kAll,         ///< into every child, each evaluated with full = false
    kFull,        ///< into every child, each evaluated with full = true
  };

  /// State for one run over `index`, whose memo is `sizes`, at size
  /// threshold `size_threshold` and ks up to `k_max`. Work counters go
  /// to `stats`, which must outlive the state.
  IncrementalState(const BitmapIndex& index, SizeMemo& sizes,
                   int size_threshold, int k_max, DetectionStats* stats);

  IncrementalState(const IncrementalState&) = delete;
  IncrementalState& operator=(const IncrementalState&) = delete;

  /// Starts iteration `k`: walks and counts read top-k prefixes, and
  /// the step's new tuple is the one at rank k (position k - 1).
  void BeginStep(int k);
  int k() const { return k_; }

  /// Walks below node `from`, whose pattern is `pattern`, descending
  /// into its children as `mode` says and below each child as
  /// `visitor(id, pattern, size_d, top_k, full)` returns. Children
  /// below the size threshold are skipped. `pattern` is the walk's
  /// mutable pattern: visitors copy it if they keep it.
  template <typename Visitor>
  void Search(Id from, const Pattern& pattern, Descend mode,
              Visitor& visitor);

  /// Search from the root, timed into DetectionStats::cpu_seconds: the
  /// full top-down searches of the incremental algorithms.
  template <typename Visitor>
  void FullSearch(Descend mode, Visitor& visitor);

  /// s_D of node `id`.
  size_t size(Id id) const { return nodes_[id].size; }

  /// s_Rk of node `id` at the current k: the stamped count plus the
  /// tuples ranked since its stamp. Counts as an evaluation
  /// (nodes_visited) unless already taken at this k.
  size_t CountAt(Id id);

  /// True once a walk descended below node `id`.
  bool Expanded(Id id) const { return (nodes_[id].flags & kExpanded) != 0; }

  /// Writes node `id`'s pattern into `out`.
  void PatternOf(Id id, Pattern* out) const;

  /// Id of an evaluated node by its pattern.
  Id Find(const Pattern& p) const;

  /// Res: the most-general biased patterns reported so far.
  const MostGeneralResultSet& res() const { return res_; }
  bool InRes(Id id) const { return (nodes_[id].flags & kInRes) != 0; }

  /// Files biased node `id` (pattern `p`) with one update(Res, p):
  /// inserted (evictions join DRes), shadowed by a proper ancestor
  /// (joins DRes), or already filed (nothing).
  void Report(Id id, const Pattern& p);

  /// Node `id` (pattern `p`) is not biased: it leaves DRes, or leaves
  /// Res, which records a removal event for the reconcile.
  void Unreport(Id id, const Pattern& p);

  /// DRes: the biased patterns a Res member shadows, sorted.
  std::vector<Pattern> DeferredPatterns() const;

  /// Drops Res, DRes and pending events (a restart).
  void Clear();

  /// Res, sorted; re-sorted only after Res changed.
  std::vector<Pattern> Snapshot();

  /// Schedules node `id` for re-evaluation at `k` (0: unschedules it).
  /// A node has one live entry; a new one replaces it.
  void Schedule(Id id, int k);

  /// Calls `fire(id)` for each node scheduled at the current k that is
  /// neither in Res nor in DRes.
  template <typename Fn>
  void FireDue(const Fn& fire);

  /// The event-driven reconcile of DRes at the current k (file
  /// comment). `policy.Biased(top_k, size_d)` evaluates the bound at
  /// the current k; `policy.OnUnbiased(id, pattern, top_k, size_d)` is
  /// called for an entry that stopped being biased, after it left DRes.
  template <typename Policy>
  void Reconcile(Policy& policy);

 private:
  static constexpr Id kNoNode = 0xffffffffu;
  static constexpr Id kBelowThreshold = 0xfffffffeu;
  static constexpr uint32_t kNoBlock = 0xffffffffu;
  static constexpr uint8_t kExpanded = 1;
  static constexpr uint8_t kInRes = 2;
  static constexpr uint8_t kDeferred = 4;

  struct Node {
    Id parent = kNoNode;
    uint32_t memo_id = SizeMemo::kRoot;
    uint32_t children = kNoBlock;  // offset of the child block in slots_
    uint32_t size = 0;
    uint32_t top_k = 0;
    int32_t counted_at = 0;    // k of top_k; 0 before the first count
    int32_t scheduled_at = 0;  // k of the live schedule entry, or 0
    uint32_t deferred_at = 0;  // position in deferred_ while in DRes
    uint16_t attr = 0;         // the predicate this node adds to its
    int16_t value = 0;         // parent
    uint8_t flags = 0;
  };

  struct Deferred {
    Id id;
    uint64_t sig;
  };

  struct Removal {
    Pattern pattern;
    uint64_t sig;
  };

  struct Pending {
    Pattern pattern;
    Id id;
    bool arrived;  // the new tuple satisfies it and it was not counted
                   // at this k yet
  };

  /// Walks the children of `parent` (the cursor and walk_node_ are at
  /// it) over attributes >= `first_attr`.
  template <typename Visitor>
  void Walk(Id parent, size_t first_attr, Descend mode, Visitor& visitor);

  /// Evaluates child (attr = value) of `parent` and hands it to the
  /// visitor.
  template <typename Visitor>
  void VisitChild(Id parent, size_t attr, int16_t value, bool full,
                  Visitor& visitor);

  /// Id of child (attr = value) of `parent` with its size and its count
  /// at the current k in `top_k`, or kBelowThreshold.
  Id EvaluateChild(Id parent, size_t attr, int16_t value, size_t* top_k);

  /// Index in slots_ of child (attr = value) of `parent`, installing
  /// the parent's block on first use.
  size_t SlotOf(Id parent, size_t attr, int16_t value);

  /// Marks node `id`, just inserted into Res by `update`, and moves the
  /// members it evicted into DRes.
  void Admit(Id id, const UpdateOutcome& update);

  void AddDeferred(Id id, const Pattern& p);
  void RemoveDeferred(Id id);

  /// True iff the step's new tuple satisfies node `id`.
  bool NewTupleSatisfies(Id id) const;

  /// True iff a removal in removed_[from, end) is a proper ancestor of
  /// DRes entry `entry`.
  bool UnderRemoval(const Deferred& entry, size_t from);

  /// Offers DRes entry `id` (pattern `p`, still biased) to Res again.
  void Promote(Id id, const Pattern& p);

  const BitmapIndex& index_;
  SizeMemo& sizes_;
  DetectionStats* stats_;
  const size_t threshold_;
  // offsets_[a]: slot of (a, 0); offsets_[num_attributes]: slot count.
  std::vector<uint32_t> offsets_;

  std::vector<Node> nodes_;
  std::vector<Id> slots_;

  int k_ = 0;
  size_t new_pos_ = 0;
  std::optional<PatternCursor> cursor_;
  Pattern walk_node_;
  Pattern scratch_;
  // CountAt's predicate bitsets, one per attribute at most.
  std::vector<const uint64_t*> words_;

  MostGeneralResultSet res_;
  uint64_t res_version_ = 0;
  uint64_t snapshot_version_ = ~uint64_t{0};
  std::vector<Pattern> snapshot_;
  std::vector<Deferred> deferred_;
  std::vector<Removal> removed_;
  // schedule_[k]: ids scheduled at k, in [0, k_max + 1].
  std::vector<std::vector<Id>> schedule_;
};

template <typename Visitor>
void IncrementalState::Search(Id from, const Pattern& pattern, Descend mode,
                              Visitor& visitor) {
  if (from == kRoot) {
    cursor_->Reset();
  } else {
    cursor_->SeedFrom(pattern);
  }
  walk_node_ = pattern;
  nodes_[from].flags |= kExpanded;
  const size_t first_attr =
      from == kRoot ? 0 : static_cast<size_t>(nodes_[from].attr) + 1;
  Walk(from, first_attr, mode, visitor);
}

template <typename Visitor>
void IncrementalState::FullSearch(Descend mode, Visitor& visitor) {
  WallTimer timer;
  Search(kRoot, Pattern::Empty(index_.space().num_attributes()), mode,
         visitor);
  stats_->cpu_seconds += timer.ElapsedSeconds();
}

template <typename Visitor>
void IncrementalState::Walk(Id parent, size_t first_attr, Descend mode,
                            Visitor& visitor) {
  const PatternSpace& space = index_.space();
  const bool full = mode == Descend::kFull;
  for (size_t j = first_attr; j < space.num_attributes(); ++j) {
    if (mode == Descend::kSatisfying) {
      VisitChild(parent, j, index_.RankedCode(new_pos_, j), false, visitor);
      continue;
    }
    const int domain = space.domain_size(j);
    for (int16_t v = 0; v < domain; ++v) {
      VisitChild(parent, j, v, full, visitor);
    }
  }
}

template <typename Visitor>
void IncrementalState::VisitChild(Id parent, size_t attr, int16_t value,
                                  bool full, Visitor& visitor) {
  ++stats_->nodes_visited;
  if (cursor_->depth() > 0) ++stats_->cursor_reuse_hits;
  size_t top_k = 0;
  const Id id = EvaluateChild(parent, attr, value, &top_k);
  if (id == kBelowThreshold) return;
  walk_node_.SetValue(attr, value);
  const Descend next = visitor(id, walk_node_,
                               static_cast<size_t>(nodes_[id].size), top_k,
                               full);
  if (next != Descend::kNone) {
    nodes_[id].flags |= kExpanded;
    cursor_->Push(attr, value);
    Walk(id, attr + 1, next, visitor);
    cursor_->Pop();
  }
  walk_node_.SetValue(attr, Pattern::kUnspecified);
}

template <typename Fn>
void IncrementalState::FireDue(const Fn& fire) {
  std::vector<Id> due;
  due.swap(schedule_[static_cast<size_t>(k_)]);
  for (const Id id : due) {
    Node& node = nodes_[id];
    if (node.scheduled_at != k_) continue;  // replaced by a later entry
    node.scheduled_at = 0;
    if ((node.flags & (kInRes | kDeferred)) != 0) continue;
    fire(id);
  }
}

template <typename Policy>
void IncrementalState::Reconcile(Policy& policy) {
  uint64_t tuple_sig = 0;
  for (size_t j = 0; j < index_.space().num_attributes(); ++j) {
    tuple_sig |= PredicateBit(j, index_.RankedCode(new_pos_, j));
  }
  std::vector<Pending> pending;
  size_t answered = 0;  // removal events already answered
  for (bool first_round = true;; first_round = false) {
    pending.clear();
    size_t arrivals = 0;
    for (const Deferred& entry : deferred_) {
      const bool arrived = nodes_[entry.id].counted_at != k_ &&
                           (entry.sig & ~tuple_sig) == 0 &&
                           NewTupleSatisfies(entry.id);
      if (!arrived && !UnderRemoval(entry, answered)) continue;
      arrivals += arrived ? 1 : 0;
      pending.push_back({Pattern(), entry.id, arrived});
      PatternOf(entry.id, &pending.back().pattern);
    }
    if (first_round) {
      stats_->reexaminations_skipped += deferred_.size() - arrivals;
    }
    answered = removed_.size();
    // Pattern order: ancestors before descendants, and one fixed order
    // for the walks, and with them the work counters.
    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                return a.pattern < b.pattern;
              });
    for (const Pending& entry : pending) {
      if ((nodes_[entry.id].flags & kDeferred) == 0) continue;  // left
      if (entry.arrived) {
        const size_t top_k = CountAt(entry.id);
        const size_t size_d = nodes_[entry.id].size;
        if (!policy.Biased(top_k, size_d)) {
          RemoveDeferred(entry.id);
          policy.OnUnbiased(entry.id, entry.pattern, top_k, size_d);
          continue;
        }
      }
      Promote(entry.id, entry.pattern);
    }
    if (removed_.size() == answered) break;
  }
  removed_.clear();
}

}  // namespace fairtopk::engine

#endif  // FAIRTOPK_DETECT_ENGINE_INCREMENTAL_STATE_H_
