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
  branches_.reserve(slots);
  for (uint32_t slot = 0; slot < slots; ++slot) {
    branches_.push_back(Branch(this, slot));
  }
}

std::pair<SizeMemo::Branch*, uint32_t> SizeMemo::Locate(const Pattern& p) {
  Branch* branch = nullptr;
  uint32_t id = Branch::kRoot;
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (!p.IsSpecified(a)) continue;
    if (branch == nullptr) {
      branch = &this->branch(a, p.value(a));
    } else {
      id = branch->Child(id, a, p.value(a));
    }
  }
  assert(branch != nullptr);
  return {branch, id};
}

SizeMemo::Branch::Branch(const SizeMemo* memo, uint32_t root_slot)
    : memo_(memo) {
  Node root;
  root.first_slot = memo->first_child_slot_[root_slot];
  nodes_.push_back(root);
}

size_t SizeMemo::Branch::SizeOf(uint32_t id, const Pattern& p,
                                const BitmapIndex& index,
                                DetectionStats* stats) {
  if (nodes_[id].size == kUnknown) {
    nodes_[id].size = index.PatternCount(p);
    if (stats != nullptr) ++stats->sizes_counted;
  }
  return nodes_[id].size;
}

void SizeMemo::Branch::AddChildren(uint32_t parent) {
  const uint32_t first = nodes_[parent].first_slot;
  const uint32_t last = memo_->offsets_.back();
  const size_t base = nodes_.size();
  // Ids are 32-bit: a branch would need billions of evaluated patterns
  // (tens of gigabytes of nodes) to run out of them.
  if (base + (last - first) >= kNoChildren) {
    std::fprintf(stderr, "fairtopk: size memo branch exceeds 2^32 nodes\n");
    std::abort();
  }
  nodes_.resize(base + (last - first));
  nodes_[parent].children = static_cast<uint32_t>(base);
  for (uint32_t slot = first; slot < last; ++slot) {
    nodes_[base + (slot - first)].first_slot = memo_->first_child_slot_[slot];
  }
}

}  // namespace fairtopk::engine
