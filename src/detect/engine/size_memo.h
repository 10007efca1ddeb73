// SizeMemo: s_D of every pattern one detect run has counted.
//
// A group's size s_D(p) does not depend on k, yet a detect run
// searches the same tree once per k: ITERTD re-searches it from the
// root, and the incremental algorithms (Algorithms 2/3) resume below
// interior nodes. The memo is created where a run's k loop starts
// (engine::StreamPerK, RunVariant), passed to every search of the
// run, and freed when the run ends. A search counts the full width of
// the index only for patterns the run has not met yet; every repeat
// reads its size here, and the search counts just the ceil(k/64) words
// of the top-k prefix (index/pattern_cursor.h).
//
// Layout: the patterns form the search tree of Definition 4.1, stored
// as a trie of dense ids: id 0 is the empty pattern, and the children
// of a node — each adds one predicate on a later attribute — get one
// contiguous block of ids the first time any of them is looked up. A
// child's id is its parent's block start plus its value slot, so a
// lookup is two array reads, the ids work for any pattern space, and a
// lookup that hits allocates nothing. Not thread-safe: one run, on one
// thread, owns a memo.
#ifndef FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_
#define FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "detect/detection_result.h"
#include "index/bitmap_index.h"
#include "pattern/pattern.h"

namespace fairtopk::engine {

class SizeMemo {
 public:
  /// Size of a node the run has not counted yet.
  static constexpr size_t kUnknown = std::numeric_limits<size_t>::max();
  /// Id of the empty pattern, the root of the search tree.
  static constexpr uint32_t kRoot = 0;

  /// An empty memo for patterns over `space`.
  explicit SizeMemo(const PatternSpace& space);

  SizeMemo(const SizeMemo&) = delete;
  SizeMemo& operator=(const SizeMemo&) = delete;

  /// Id of the child of node `parent` that adds (attr = value);
  /// `attr` must come after every attribute `parent` specifies.
  uint32_t Child(uint32_t parent, size_t attr, int16_t value) {
    const uint32_t slot = Slot(attr, value);
    if (nodes_[parent].children == kNoChildren) AddChildren(parent);
    const Node& node = nodes_[parent];
    assert(slot >= node.first_slot);
    return node.children + (slot - node.first_slot);
  }

  /// s_D of node `id`, or kUnknown.
  size_t size(uint32_t id) const { return nodes_[id].size; }
  void set_size(uint32_t id, size_t size) { nodes_[id].size = size; }

  /// The id of `p`, creating the nodes on its search-tree path.
  uint32_t Locate(const Pattern& p);

  /// s_D(p) of node `id`, which is `p`: the stored size, or, on a
  /// miss, index.PatternCount(p), stored and tallied in
  /// stats->sizes_counted (when non-null).
  size_t SizeOf(uint32_t id, const Pattern& p, const BitmapIndex& index,
                DetectionStats* stats);

  /// s_D(p), as above, for a pattern located by Locate.
  size_t SizeOf(const Pattern& p, const BitmapIndex& index,
                DetectionStats* stats) {
    return SizeOf(Locate(p), p, index, stats);
  }

 private:
  static constexpr uint32_t kNoChildren = std::numeric_limits<uint32_t>::max();

  struct Node {
    size_t size = kUnknown;
    uint32_t children = kNoChildren;  // id of the first child
    uint32_t first_slot = 0;          // slot of the first child
  };

  /// Position of (attr, value) among every attribute's values, in
  /// search-tree order.
  uint32_t Slot(size_t attr, int16_t value) const {
    return offsets_[attr] + static_cast<uint32_t>(value);
  }

  /// Appends the block of `parent`'s children.
  void AddChildren(uint32_t parent);

  // offsets_[a]: slot of (a, 0); offsets_[num_attributes] = slot count.
  std::vector<uint32_t> offsets_;
  // first_child_slot_[s]: the first slot a child of a node whose last
  // predicate is slot s may add — the next attribute's (·, 0).
  std::vector<uint32_t> first_child_slot_;
  std::vector<Node> nodes_;
};

}  // namespace fairtopk::engine

#endif  // FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_
