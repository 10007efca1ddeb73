#include "detect/engine/size_memo.h"

#include <algorithm>

#include "common/metrics/metrics.h"
#include "detect/detection_result.h"
#include "index/bitmap_index.h"
#include "pattern/pattern.h"

namespace fairtopk::engine {

namespace {

/// The memo's two series. Block installs and unstored misses are rare,
/// so both stay exact whether or not metrics are enabled.
struct MemoMetrics {
  metrics::Gauge& nodes;
  metrics::Counter& unstored;

  static MemoMetrics& Get() {
    static MemoMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new MemoMetrics{
          registry
              .GaugeFamily("fairtopk_size_memo_nodes",
                           "Nodes held by live group-size memos")
              .With({}),
          registry
              .CounterFamily("fairtopk_size_memo_unstored_total",
                             "Group sizes counted but not stored: the "
                             "node's block exceeded its memo's budget")
              .With({})};
    }();
    return *m;
  }
};

}  // namespace

SizeMemo::SizeMemo(const PatternSpace& space, size_t node_budget)
    : budget_(std::clamp<size_t>(node_budget, 1, kNodeBudget)),
      chunks_(new std::atomic<Node*>[(budget_ + kChunkNodes - 1) /
                                     kChunkNodes]()) {
  offsets_.reserve(space.num_attributes() + 1);
  uint32_t slots = 0;
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    offsets_.push_back(slots);
    slots += static_cast<uint32_t>(space.domain_size(a));
    first_child_slot_.resize(slots, slots);
  }
  offsets_.push_back(slots);
}

SizeMemo::~SizeMemo() {
  const size_t chunks = (budget_ + kChunkNodes - 1) / kChunkNodes;
  for (size_t c = 0; c < chunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
  MemoMetrics::Get().nodes.Dec(static_cast<int64_t>(nodes()));
}

uint64_t SizeMemo::UnstoredMisses() {
  return MemoMetrics::Get().unstored.value();
}

void SizeMemo::CountUnstored() { MemoMetrics::Get().unstored.Inc(); }

uint32_t SizeMemo::Locate(const Pattern& p) {
  uint32_t id = kRoot;
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.IsSpecified(a)) id = Child(id, a, p.value(a));
  }
  return id;
}

size_t SizeMemo::SizeOf(uint32_t id, const Pattern& p,
                        const BitmapIndex& index, DetectionStats* stats) {
  size_t s = size(id);
  if (s == kUnknown) {
    s = index.PatternCount(p);
    set_size(id, s);
    if (stats != nullptr) ++stats->sizes_counted;
  }
  return s;
}

uint32_t SizeMemo::AddChildren(uint32_t parent) {
  if (parent == kUnstored) return kUnstored;
  std::lock_guard<std::mutex> lock(mutex_);
  MemoMetrics& memo_metrics = MemoMetrics::Get();
  if (nodes() == 0) {
    // The first install also makes the root.
    chunks_[0].store(new Node[kChunkNodes], std::memory_order_release);
    nodes_.store(1, std::memory_order_relaxed);
    memo_metrics.nodes.Inc();
  }
  Node& node = *Find(parent);
  const uint32_t installed = node.children.load(std::memory_order_relaxed);
  if (installed != kNoChildren) return installed;
  const uint32_t first = node.first_slot;
  const uint32_t last = offsets_.back();
  const size_t base = nodes();
  const size_t count = last - first;
  if (base + count > budget_) {
    node.children.store(kUnstored, std::memory_order_release);
    return kUnstored;
  }
  // Chunks covering ids [base, base + count) that do not exist yet.
  const size_t end_chunk = (base + count + kChunkNodes - 1) >> kChunkBits;
  for (size_t c = base >> kChunkBits; c < end_chunk; ++c) {
    if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      chunks_[c].store(new Node[kChunkNodes], std::memory_order_release);
    }
  }
  for (uint32_t slot = first; slot < last; ++slot) {
    Find(static_cast<uint32_t>(base + (slot - first)))->first_slot =
        first_child_slot_[slot];
  }
  nodes_.store(base + count, std::memory_order_relaxed);
  memo_metrics.nodes.Inc(static_cast<int64_t>(count));
  node.children.store(static_cast<uint32_t>(base), std::memory_order_release);
  return static_cast<uint32_t>(base);
}

}  // namespace fairtopk::engine
