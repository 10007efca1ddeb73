#include "detect/engine/incremental_state.h"

#include <algorithm>
#include <bit>

namespace fairtopk::engine {

IncrementalState::IncrementalState(const BitmapIndex& index, SizeMemo& sizes,
                                   int size_threshold, int k_max,
                                   DetectionStats* stats)
    : index_(index),
      sizes_(sizes),
      stats_(stats),
      threshold_(static_cast<size_t>(size_threshold)),
      walk_node_(Pattern::Empty(index.space().num_attributes())),
      scratch_(walk_node_),
      words_(index.space().num_attributes()),
      schedule_(static_cast<size_t>(k_max) + 2) {
  const PatternSpace& space = index.space();
  uint32_t slots = 0;
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    offsets_.push_back(slots);
    slots += static_cast<uint32_t>(space.domain_size(a));
  }
  offsets_.push_back(slots);
  Node root;
  root.size = static_cast<uint32_t>(index.num_rows());
  nodes_.push_back(root);
}

void IncrementalState::BeginStep(int k) {
  k_ = k;
  new_pos_ = static_cast<size_t>(k - 1);
  cursor_.emplace(index_, static_cast<size_t>(k));
}

size_t IncrementalState::SlotOf(Id parent, size_t attr, int16_t value) {
  const uint32_t first =
      parent == kRoot ? 0 : offsets_[nodes_[parent].attr + size_t{1}];
  if (nodes_[parent].children == kNoBlock) {
    nodes_[parent].children = static_cast<uint32_t>(slots_.size());
    slots_.resize(slots_.size() + (offsets_.back() - first), kNoNode);
  }
  return nodes_[parent].children +
         (offsets_[attr] + static_cast<uint32_t>(value) - first);
}

IncrementalState::Id IncrementalState::EvaluateChild(Id parent, size_t attr,
                                                     int16_t value,
                                                     size_t* top_k) {
  const size_t slot = SlotOf(parent, attr, value);
  Id id = slots_[slot];
  if (id == kBelowThreshold) return kBelowThreshold;
  if (id == kNoNode) {
    // First evaluation in this run: the size comes from the input's
    // memo, or is counted over the full width and stored there.
    const uint32_t memo_id =
        sizes_.Child(nodes_[parent].memo_id, attr, value);
    size_t size_d = sizes_.size(memo_id);
    const bool counted = size_d == SizeMemo::kUnknown;
    if (counted) {
      cursor_->ChildCounts(attr, value, &size_d, top_k);
      sizes_.set_size(memo_id, size_d);
      ++stats_->sizes_counted;
    }
    if (size_d < threshold_) {
      slots_[slot] = kBelowThreshold;
      return kBelowThreshold;
    }
    id = static_cast<Id>(nodes_.size());
    Node node;
    node.parent = parent;
    node.memo_id = memo_id;
    node.size = static_cast<uint32_t>(size_d);
    node.attr = static_cast<uint16_t>(attr);
    node.value = value;
    if (counted) {
      node.top_k = static_cast<uint32_t>(*top_k);
      node.counted_at = k_;
    }
    nodes_.push_back(node);
    slots_[slot] = id;
  }
  Node& node = nodes_[id];
  if (node.counted_at != k_) {
    node.top_k = static_cast<uint32_t>(cursor_->ChildTopK(attr, value));
    node.counted_at = k_;
  }
  *top_k = node.top_k;
  return id;
}

size_t IncrementalState::CountAt(Id id) {
  Node& node = nodes_[id];
  if (node.counted_at == k_) return node.top_k;
  ++stats_->nodes_visited;
  // The tuples at positions [counted_at, k) that satisfy every
  // predicate of the node.
  size_t depth = 0;
  for (Id x = id; x != kRoot; x = nodes_[x].parent) {
    words_[depth++] =
        index_.ValueBitset(nodes_[x].attr, nodes_[x].value).words().data();
  }
  const size_t from = static_cast<size_t>(node.counted_at);
  const size_t to = static_cast<size_t>(k_);
  const size_t first = from / 64;
  const size_t last = (to - 1) / 64;
  size_t added = 0;
  for (size_t w = first; w <= last; ++w) {
    uint64_t bits = ~uint64_t{0};
    if (w == first) bits <<= from % 64;
    if (w == last && to % 64 != 0) bits &= (uint64_t{1} << (to % 64)) - 1;
    for (size_t d = 0; d < depth && bits != 0; ++d) bits &= words_[d][w];
    added += static_cast<size_t>(std::popcount(bits));
  }
  node.top_k += static_cast<uint32_t>(added);
  node.counted_at = k_;
  return node.top_k;
}

void IncrementalState::PatternOf(Id id, Pattern* out) const {
  const size_t n = index_.space().num_attributes();
  if (out->num_attributes() != n) {
    *out = Pattern::Empty(n);
  } else {
    for (size_t a = 0; a < n; ++a) out->SetValue(a, Pattern::kUnspecified);
  }
  for (Id x = id; x != kRoot; x = nodes_[x].parent) {
    out->SetValue(nodes_[x].attr, nodes_[x].value);
  }
}

IncrementalState::Id IncrementalState::Find(const Pattern& p) const {
  Id id = kRoot;
  uint32_t first = 0;
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (!p.IsSpecified(a)) continue;
    if (nodes_[id].children == kNoBlock) return kNoNode;
    id = slots_[nodes_[id].children +
                (offsets_[a] + static_cast<uint32_t>(p.value(a)) - first)];
    if (id >= kBelowThreshold) return kNoNode;
    first = offsets_[a + 1];
  }
  return id;
}

void IncrementalState::Report(Id id, const Pattern& p) {
  if ((nodes_[id].flags & (kInRes | kDeferred)) != 0) return;
  // The flags rule out a duplicate: not inserted means shadowed.
  UpdateOutcome update = res_.Update(p);
  if (update.inserted) {
    Admit(id, update);
  } else {
    AddDeferred(id, p);
  }
}

void IncrementalState::Admit(Id id, const UpdateOutcome& update) {
  nodes_[id].flags |= kInRes;
  ++res_version_;
  for (const Pattern& evicted : update.evicted) {
    const Id evicted_id = Find(evicted);
    nodes_[evicted_id].flags &= static_cast<uint8_t>(~kInRes);
    AddDeferred(evicted_id, evicted);
  }
}

void IncrementalState::Unreport(Id id, const Pattern& p) {
  const uint8_t flags = nodes_[id].flags;
  if ((flags & kDeferred) != 0) {
    RemoveDeferred(id);
  } else if ((flags & kInRes) != 0) {
    res_.Remove(p);
    nodes_[id].flags &= static_cast<uint8_t>(~kInRes);
    ++res_version_;
    removed_.push_back({p, PredicateSignature(p)});
  }
}

void IncrementalState::Promote(Id id, const Pattern& p) {
  UpdateOutcome update = res_.Update(p);
  if (!update.inserted) return;  // still shadowed
  RemoveDeferred(id);
  Admit(id, update);
}

void IncrementalState::Clear() {
  for (const Pattern& p : res_.patterns()) {
    nodes_[Find(p)].flags &= static_cast<uint8_t>(~kInRes);
  }
  for (const Deferred& entry : deferred_) {
    nodes_[entry.id].flags &= static_cast<uint8_t>(~kDeferred);
  }
  res_.Clear();
  deferred_.clear();
  removed_.clear();
  ++res_version_;
}

std::vector<Pattern> IncrementalState::DeferredPatterns() const {
  std::vector<Pattern> out(deferred_.size());
  for (size_t i = 0; i < deferred_.size(); ++i) {
    PatternOf(deferred_[i].id, &out[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Pattern> IncrementalState::Snapshot() {
  if (snapshot_version_ != res_version_) {
    snapshot_ = res_.Sorted();
    snapshot_version_ = res_version_;
  }
  return snapshot_;
}

void IncrementalState::Schedule(Id id, int k) {
  Node& node = nodes_[id];
  if (node.scheduled_at == k) return;
  node.scheduled_at = k;
  if (k != 0) schedule_[static_cast<size_t>(k)].push_back(id);
}

void IncrementalState::AddDeferred(Id id, const Pattern& p) {
  nodes_[id].flags |= kDeferred;
  nodes_[id].deferred_at = static_cast<uint32_t>(deferred_.size());
  deferred_.push_back({id, PredicateSignature(p)});
}

void IncrementalState::RemoveDeferred(Id id) {
  const uint32_t at = nodes_[id].deferred_at;
  deferred_[at] = deferred_.back();
  nodes_[deferred_[at].id].deferred_at = at;
  deferred_.pop_back();
  nodes_[id].flags &= static_cast<uint8_t>(~kDeferred);
}

bool IncrementalState::NewTupleSatisfies(Id id) const {
  for (Id x = id; x != kRoot; x = nodes_[x].parent) {
    if (index_.RankedCode(new_pos_, nodes_[x].attr) != nodes_[x].value) {
      return false;
    }
  }
  return true;
}

bool IncrementalState::UnderRemoval(const Deferred& entry, size_t from) {
  bool built = false;
  for (size_t i = from; i < removed_.size(); ++i) {
    if ((removed_[i].sig & ~entry.sig) != 0) continue;
    if (!built) {
      PatternOf(entry.id, &scratch_);
      built = true;
    }
    if (removed_[i].pattern.IsProperAncestorOf(scratch_)) return true;
  }
  return false;
}

}  // namespace fairtopk::engine
