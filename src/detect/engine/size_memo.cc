#include "detect/engine/size_memo.h"

#include <cstdio>
#include <cstdlib>

namespace fairtopk::engine {

SizeMemo::SizeMemo(const PatternSpace& space) {
  offsets_.reserve(space.num_attributes() + 1);
  uint32_t slots = 0;
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    offsets_.push_back(slots);
    slots += static_cast<uint32_t>(space.domain_size(a));
    first_child_slot_.resize(slots, slots);
  }
  offsets_.push_back(slots);
  // The root's children may add a predicate on any attribute.
  nodes_.push_back(Node{});
}

uint32_t SizeMemo::Locate(const Pattern& p) {
  uint32_t id = kRoot;
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.IsSpecified(a)) id = Child(id, a, p.value(a));
  }
  return id;
}

size_t SizeMemo::SizeOf(uint32_t id, const Pattern& p,
                        const BitmapIndex& index, DetectionStats* stats) {
  if (nodes_[id].size == kUnknown) {
    nodes_[id].size = index.PatternCount(p);
    if (stats != nullptr) ++stats->sizes_counted;
  }
  return nodes_[id].size;
}

void SizeMemo::AddChildren(uint32_t parent) {
  const uint32_t first = nodes_[parent].first_slot;
  const uint32_t last = offsets_.back();
  const size_t base = nodes_.size();
  // Ids are 32-bit: a run would need billions of evaluated patterns
  // (tens of gigabytes of nodes) to run out of them.
  if (base + (last - first) >= kNoChildren) {
    std::fprintf(stderr, "fairtopk: size memo exceeds 2^32 nodes\n");
    std::abort();
  }
  nodes_.resize(base + (last - first));
  nodes_[parent].children = static_cast<uint32_t>(base);
  for (uint32_t slot = first; slot < last; ++slot) {
    nodes_[base + (slot - first)].first_slot = first_child_slot_[slot];
  }
}

}  // namespace fairtopk::engine
