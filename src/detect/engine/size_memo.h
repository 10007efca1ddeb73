// SizeMemo: s_D of every pattern the searches over one index have
// counted.
//
// A group's size s_D(p) depends only on the data D: not on k, not on
// the query, and not on the ranking. So one memo serves every search
// of an index generation. DetectionInput owns it (input.sizes()) and
// every detect run, CountGroups and SuggestParameters read and extend
// it; an append, which changes sizes, replaces it with an empty one,
// while a re-rank keeps it. A search counts the full width of the
// index only for patterns no earlier search met; every repeat reads
// its size here, and the search counts just the ceil(k/64) words of
// the top-k prefix (index/pattern_cursor.h). A warm memo leaves a run
// no full-width counting at all.
//
// Layout: the patterns form the search tree of Definition 4.1, stored
// as a trie of dense ids: id 0 is the empty pattern, and the children
// of a node — each adds one predicate on a later attribute — get one
// contiguous block of ids the first time any of them is looked up. A
// child's id is its parent's block start plus its value slot, so a
// lookup is two array reads, the ids work for any pattern space, and a
// lookup that hits allocates nothing.
//
// Concurrency: any number of searches may share a memo. Nodes live in
// fixed-size chunks that never move, allocated as blocks need them (an
// unused memo holds none). A size is a relaxed atomic: every writer of
// a node stores the same value, so a reader sees either that value or
// kUnknown and then counts the size itself. A node's child block is
// installed once, under the memo's mutex with a double check, and
// published by a release store of its start that lookups read with an
// acquire load; reading a size or a child of an installed block takes
// no lock.
//
// Budget: a memo holds at most `node_budget` nodes. A block that does
// not fit is never installed: its nodes' sizes are counted on every
// evaluation and never stored (tallied in the
// fairtopk_size_memo_unstored_total metric), so results stay exact.
#ifndef FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_
#define FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace fairtopk {

class BitmapIndex;
class Pattern;
class PatternSpace;
struct DetectionStats;

namespace engine {

class SizeMemo {
 public:
  /// Size of a node no search has stored yet.
  static constexpr size_t kUnknown = std::numeric_limits<size_t>::max();
  /// Id of the empty pattern, the root of the search tree.
  static constexpr uint32_t kRoot = 0;
  /// Id of every node whose block did not fit the budget: its size
  /// always reads kUnknown, and storing one only counts the miss.
  static constexpr uint32_t kUnstored = std::numeric_limits<uint32_t>::max();
  /// The node budget of every DetectionInput's memo: 2^22 nodes of 12
  /// bytes, 48 MiB. The largest single run of the paper-figure benches
  /// (bench_fig5_attrs_prop) stores 4,096,278 nodes.
  static constexpr size_t kNodeBudget = size_t{1} << 22;

  /// An empty memo for patterns over `space`, holding at most
  /// `node_budget` nodes (root included; at most kNodeBudget).
  explicit SizeMemo(const PatternSpace& space,
                    size_t node_budget = kNodeBudget);
  ~SizeMemo();

  SizeMemo(const SizeMemo&) = delete;
  SizeMemo& operator=(const SizeMemo&) = delete;

  /// Id of the child of node `parent` that adds (attr = value);
  /// `attr` must come after every attribute `parent` specifies.
  /// kUnstored when the child's block does not fit the budget.
  uint32_t Child(uint32_t parent, size_t attr, int16_t value) {
    const Node* node = Find(parent);
    uint32_t block = node != nullptr
                         ? node->children.load(std::memory_order_acquire)
                         : kNoChildren;
    if (block == kNoChildren) block = AddChildren(parent);
    if (block == kUnstored) return kUnstored;
    const uint32_t first_slot = node != nullptr ? node->first_slot : 0;
    const uint32_t slot = Slot(attr, value);
    assert(slot >= first_slot);
    return block + (slot - first_slot);
  }

  /// s_D of node `id`, or kUnknown.
  size_t size(uint32_t id) const {
    const Node* node = Find(id);
    if (node == nullptr) return kUnknown;
    const uint32_t size = node->size.load(std::memory_order_relaxed);
    return size == kUnknown32 ? kUnknown : size;
  }

  /// Stores s_D of node `id`; for kUnstored, only counts the miss.
  void set_size(uint32_t id, size_t size) {
    Node* node = Find(id);
    if (node == nullptr) {
      CountUnstored();
      return;
    }
    assert(size < kUnknown32);
    node->size.store(static_cast<uint32_t>(size), std::memory_order_relaxed);
  }

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

  /// Nodes this memo holds (0 until the first block is installed).
  size_t nodes() const { return nodes_.load(std::memory_order_relaxed); }

  /// Process-wide misses counted but not stored, summed over every
  /// memo (the fairtopk_size_memo_unstored_total metric).
  static uint64_t UnstoredMisses();

 private:
  static constexpr uint32_t kNoChildren = kUnstored - 1;
  static constexpr uint32_t kUnknown32 = std::numeric_limits<uint32_t>::max();
  static constexpr int kChunkBits = 12;
  static constexpr uint32_t kChunkNodes = uint32_t{1} << kChunkBits;

  struct Node {
    std::atomic<uint32_t> size{kUnknown32};
    std::atomic<uint32_t> children{kNoChildren};  // id of the first child
    uint32_t first_slot = 0;  // slot of the first child; set before publish
  };

  /// Node `id`; null for kUnstored and for the root of a memo with no
  /// chunk yet. Any other id a lookup returned was published after its
  /// chunk, so the chunk is there.
  const Node* Find(uint32_t id) const {
    if (id == kUnstored) return nullptr;
    const Node* chunk =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : chunk + (id & (kChunkNodes - 1));
  }
  Node* Find(uint32_t id) {
    return const_cast<Node*>(static_cast<const SizeMemo*>(this)->Find(id));
  }

  /// Position of (attr, value) among every attribute's values, in
  /// search-tree order.
  uint32_t Slot(size_t attr, int16_t value) const {
    return offsets_[attr] + static_cast<uint32_t>(value);
  }

  /// Installs the block of `parent`'s children, unless another thread
  /// did, and returns its first id, or kUnstored when it does not fit.
  uint32_t AddChildren(uint32_t parent);

  /// Tallies one miss that could not be stored.
  static void CountUnstored();

  // offsets_[a]: slot of (a, 0); offsets_[num_attributes] = slot count.
  std::vector<uint32_t> offsets_;
  // first_child_slot_[s]: the first slot a child of a node whose last
  // predicate is slot s may add — the next attribute's (·, 0).
  std::vector<uint32_t> first_child_slot_;
  const size_t budget_;
  // One pointer per chunk the budget allows; written once each, under
  // mutex_.
  std::unique_ptr<std::atomic<Node*>[]> chunks_;
  // Ids handed out; written under mutex_.
  std::atomic<size_t> nodes_{0};
  std::mutex mutex_;
};

}  // namespace engine
}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_ENGINE_SIZE_MEMO_H_
