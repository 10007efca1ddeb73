#include "detect/detection_result.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "detect/engine/size_memo.h"

namespace fairtopk {

void DetectionResult::CountGroups(const DetectionInput& input) {
  const BitmapIndex& index = input.index();
  for (int k = k_min(); k <= k_max(); ++k) {
    const std::vector<Pattern>& groups = AtK(k);
    std::vector<GroupCounts>& counts = counts_[static_cast<size_t>(k - k_min_)];
    counts.clear();
    counts.reserve(groups.size());
    for (const Pattern& p : groups) {
      counts.push_back({input.sizes().SizeOf(p, index, nullptr),
                        index.TopKCount(p, static_cast<size_t>(k))});
    }
  }
  num_rows_ = index.num_rows();
  counted_ = true;
  report_.Clear();
}

void DetectionResult::RequireCounted() const {
  if (counted_) return;
  std::fprintf(stderr,
               "fairtopk: this DetectionResult has no stored counts; call "
               "DetectionResult::CountGroups after its last edit\n");
  std::abort();
}

std::vector<Pattern> DetectionResult::AllDistinct() const {
  std::vector<Pattern> all;
  for (const auto& patterns : per_k_) {
    all.insert(all.end(), patterns.begin(), patterns.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

size_t DetectionResult::MaxResultSize() const {
  size_t max_size = 0;
  for (const auto& patterns : per_k_) {
    max_size = std::max(max_size, patterns.size());
  }
  return max_size;
}

DetectionInput::DetectionInput(BitmapIndex index)
    : index_(std::move(index)),
      sizes_(std::make_unique<engine::SizeMemo>(index_.space())) {}

DetectionInput::DetectionInput(const DetectionInput& other)
    : DetectionInput(other.index_) {}

DetectionInput& DetectionInput::operator=(const DetectionInput& other) {
  if (this != &other) *this = DetectionInput(other);
  return *this;
}

DetectionInput::DetectionInput(DetectionInput&&) noexcept = default;
DetectionInput& DetectionInput::operator=(DetectionInput&&) noexcept = default;
DetectionInput::~DetectionInput() = default;

Result<DetectionInput> DetectionInput::Prepare(
    const Table& table, const Ranker& ranker,
    const std::vector<std::string>& pattern_attributes) {
  FAIRTOPK_ASSIGN_OR_RETURN(std::vector<uint32_t> ranking,
                            ranker.Rank(table));
  return PrepareWithRanking(table, std::move(ranking), pattern_attributes);
}

Result<DetectionInput> DetectionInput::PrepareWithRanking(
    const Table& table, std::vector<uint32_t> ranking,
    const std::vector<std::string>& pattern_attributes) {
  Result<PatternSpace> space =
      pattern_attributes.empty()
          ? PatternSpace::CreateAllCategorical(table.schema())
          : PatternSpace::Create(table.schema(), pattern_attributes);
  if (!space.ok()) return space.status();
  FAIRTOPK_ASSIGN_OR_RETURN(
      BitmapIndex index, BitmapIndex::Build(table, *space, std::move(ranking)));
  return DetectionInput(std::move(index));
}

Status DetectionInput::UpdateRanking(const Table& table,
                                     std::vector<uint32_t> new_ranking,
                                     double rebuild_threshold,
                                     MaintenanceOutcome* outcome) {
  const std::vector<uint32_t>& old = index_.ranking();
  const size_t old_n = old.size();
  const size_t n = new_ranking.size();
  MaintenanceOutcome local;
  size_t lo = 0;
  const size_t shared = std::min(old_n, n);
  while (lo < shared && old[lo] == new_ranking[lo]) ++lo;
  if (lo == n && n == old_n) {
    if (outcome != nullptr) *outcome = local;
    return Status::OK();
  }
  local.window = n - lo;
  // The decision weighs the positions that actually changed, not the
  // window span: scattered local moves leave most positions inside the
  // window pointwise identical, and patching skips those for one
  // row-id compare each.
  size_t changed = n - shared;
  for (size_t pos = lo; pos < shared; ++pos) {
    changed += old[pos] != new_ranking[pos] ? 1 : 0;
  }
  if (static_cast<double>(changed) >
      rebuild_threshold * static_cast<double>(n)) {
    FAIRTOPK_ASSIGN_OR_RETURN(
        BitmapIndex rebuilt,
        BitmapIndex::Build(table, index_.space(), std::move(new_ranking)));
    index_ = std::move(rebuilt);
    local.kind = Maintenance::kRebuilt;
  } else {
    FAIRTOPK_RETURN_IF_ERROR(index_.ApplyRanking(
        table, new_ranking, &local.patched_positions));
    local.kind = Maintenance::kPatched;
  }
  // Appended rows change group sizes; a re-rank changes none.
  if (n != old_n) {
    sizes_ = std::make_unique<engine::SizeMemo>(index_.space());
  }
  if (outcome != nullptr) *outcome = local;
  return Status::OK();
}

Status DetectionInput::ValidateConfig(const DetectionConfig& config) const {
  if (config.k_min < 1) {
    return Status::InvalidArgument("k_min must be at least 1");
  }
  if (config.k_max < config.k_min) {
    return Status::InvalidArgument("k_max must be >= k_min");
  }
  if (static_cast<size_t>(config.k_max) > num_rows()) {
    return Status::InvalidArgument(
        "k_max " + std::to_string(config.k_max) + " exceeds dataset size " +
        std::to_string(num_rows()));
  }
  if (config.size_threshold < 1) {
    return Status::InvalidArgument("size threshold must be positive");
  }
  if (config.num_threads != 1) {
    return Status::InvalidArgument(
        "num_threads must be 1: every search runs on the calling thread");
  }
  return Status::OK();
}

}  // namespace fairtopk
