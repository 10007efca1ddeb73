// Shared input/output types for the detection algorithms.
#ifndef FAIRTOPK_DETECT_DETECTION_RESULT_H_
#define FAIRTOPK_DETECT_DETECTION_RESULT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/bitmap_index.h"
#include "pattern/pattern.h"
#include "ranking/ranker.h"
#include "relation/table.h"

namespace fairtopk {

class DetectionInput;

namespace engine {
class SizeMemo;
}  // namespace engine

/// Parameters common to all detection problems.
struct DetectionConfig {
  int k_min = 10;
  int k_max = 49;
  /// Minimum group size in D (τs). Groups smaller than this are never
  /// reported (and, by anti-monotonicity, never expanded).
  int size_threshold = 50;
  /// Threads per search. Every search runs on the calling thread, so
  /// ValidateConfig accepts only 1; the field remains because perfbench
  /// still sets it.
  int num_threads = 1;
};

/// Work counters for the search-space experiments of Section VI-B.
struct DetectionStats {
  /// Number of pattern nodes whose representation was evaluated —
  /// the "patterns examined during the search" count the paper compares.
  uint64_t nodes_visited = 0;
  /// Node evaluations below a non-empty parent in the search engine:
  /// each was answered from the parent's PatternCursor frame (and the
  /// input's size memo) instead of |p| full intersections.
  uint64_t cursor_reuse_hits = 0;
  /// Full-width size counts in this run: evaluations whose s_D(p) the
  /// input's size memo (engine/size_memo.h) did not hold yet. The memo
  /// outlives the run, so a run on a warm input counts 0; every other
  /// evaluation reads only the ceil(k/64) top-k prefix words.
  uint64_t sizes_counted = 0;
  /// Re-examinations of the deferred set (DRes, the biased groups a
  /// reported ancestor shadows) that the incremental detectors skipped:
  /// at each incremental k, every DRes entry the newly admitted tuple
  /// does not satisfy keeps its count, so its bound is not evaluated
  /// again (engine/incremental_state.h). With nodes_visited it keeps
  /// the paper's "patterns examined" comparable with re-examining all
  /// of DRes at every k. 0 for every other detector.
  uint64_t reexaminations_skipped = 0;
  /// Elapsed wall-clock seconds of the algorithm's per-k work, summed
  /// by engine::RunPerK (the result's CountGroups is not included).
  /// Not accumulated by Merge(): the driver's clock already covers
  /// every search it runs.
  double seconds = 0.0;
  /// Seconds spent inside full top-down searches
  /// (engine::SequentialTopDown, IncrementalState::FullSearch), a part
  /// of `seconds`: nearly all of it for ITERTD and the upper-bound
  /// detectors, only the initial and restarted searches for the
  /// incremental algorithms.
  double cpu_seconds = 0.0;

  /// Adds one search's work counters and cpu_seconds into these;
  /// `seconds` is left untouched.
  void Merge(const DetectionStats& other) {
    nodes_visited += other.nodes_visited;
    cursor_reuse_hits += other.cursor_reuse_hits;
    sizes_counted += other.sizes_counted;
    reexaminations_skipped += other.reexaminations_skipped;
    cpu_seconds += other.cpu_seconds;
  }
};

/// The counts of one reported group, taken from the index the run
/// searched.
struct GroupCounts {
  size_t size = 0;   ///< s_D(p)
  size_t top_k = 0;  ///< s_Rk(p) at the k the group is reported for

  friend bool operator==(const GroupCounts&, const GroupCounts&) = default;
};

/// Per-k most-general biased patterns, their counts, plus stats.
class DetectionResult {
 public:
  DetectionResult(int k_min, int k_max)
      : k_min_(k_min),
        per_k_(static_cast<size_t>(k_max - k_min + 1)),
        counts_(per_k_.size()) {}

  int k_min() const { return k_min_; }
  int k_max() const { return k_min_ + static_cast<int>(per_k_.size()) - 1; }

  /// Reported patterns for `k` (sorted, deterministic).
  const std::vector<Pattern>& AtK(int k) const {
    return per_k_[static_cast<size_t>(k - k_min_)];
  }

  /// Mutable accessor used by the algorithms. Drops the stored counts
  /// and report bytes: call CountGroups again after the last edit.
  std::vector<Pattern>& MutableAtK(int k) {
    counted_ = false;
    report_.Clear();
    return per_k_[static_cast<size_t>(k - k_min_)];
  }

  /// Stores every reported group's size and top-k count, read from
  /// `input` — the input the run searched, which the caller keeps
  /// unchanged for the duration (a session holds its shared lock).
  /// Sizes come from the input's size memo, where the run left every
  /// group it reported. Every detector entry point returns a counted
  /// result.
  void CountGroups(const DetectionInput& input);

  /// True once CountGroups ran after the last MutableAtK.
  bool counted() const { return counted_; }

  /// Counts of AtK(k)'s groups, index-aligned with AtK(k). Aborts
  /// unless counted().
  const std::vector<GroupCounts>& CountsAtK(int k) const {
    RequireCounted();
    return counts_[static_cast<size_t>(k - k_min_)];
  }

  /// |D| of the index the counts were taken from. Aborts unless
  /// counted().
  size_t num_rows() const {
    RequireCounted();
    return num_rows_;
  }

  /// Distinct patterns reported at any k, sorted.
  std::vector<Pattern> AllDistinct() const;

  /// Largest per-k result size.
  size_t MaxResultSize() const;

  DetectionStats& stats() { return stats_; }
  const DetectionStats& stats() const { return stats_; }

  /// The serialized report of this result: `build()`'s bytes, built by
  /// the first call and shared by every later call. A result served
  /// many times, such as a session cache entry, is then formatted once;
  /// the caller labels a result the same way every time. Thread-safe on
  /// a result no longer edited; concurrent first callers wait for the
  /// one build. Copies of a result start without stored bytes.
  template <typename Build>
  std::shared_ptr<const std::string> ReportBytes(const Build& build) const {
    std::lock_guard<std::mutex> lock(report_.mutex);
    if (report_.bytes == nullptr) {
      report_.bytes = std::make_shared<const std::string>(build());
    }
    return report_.bytes;
  }

 private:
  /// Storage of ReportBytes. Copying or assigning a result leaves the
  /// target with no stored bytes, since its groups may then change.
  struct ReportMemo {
    ReportMemo() = default;
    ReportMemo(const ReportMemo&) noexcept {}
    ReportMemo& operator=(const ReportMemo&) {
      Clear();
      return *this;
    }
    void Clear() {
      std::lock_guard<std::mutex> lock(mutex);
      bytes.reset();
    }

    std::mutex mutex;
    std::shared_ptr<const std::string> bytes;  ///< guarded by mutex
  };

  /// Aborts with a message unless counted().
  void RequireCounted() const;

  int k_min_;
  std::vector<std::vector<Pattern>> per_k_;
  std::vector<std::vector<GroupCounts>> counts_;
  size_t num_rows_ = 0;
  bool counted_ = false;
  DetectionStats stats_;
  mutable ReportMemo report_;
};

/// Validated bundle of everything the algorithms need: the ranked
/// bitmap index for one (table, ranker, pattern attributes) triple,
/// and the size memo every search over it shares. Building it once
/// lets benchmark comparisons exclude ranking and index-construction
/// cost from all algorithms equally.
class DetectionInput {
 public:
  /// A copy starts with an empty size memo; a move carries the memo.
  DetectionInput(const DetectionInput& other);
  DetectionInput& operator=(const DetectionInput& other);
  DetectionInput(DetectionInput&&) noexcept;
  DetectionInput& operator=(DetectionInput&&) noexcept;
  ~DetectionInput();

  /// Ranks `table` with `ranker`, builds the pattern space over
  /// `pattern_attributes` (all categorical attributes when empty), and
  /// indexes the result.
  static Result<DetectionInput> Prepare(
      const Table& table, const Ranker& ranker,
      const std::vector<std::string>& pattern_attributes = {});

  /// As above with an explicit precomputed ranking permutation, which
  /// the index build validates.
  static Result<DetectionInput> PrepareWithRanking(
      const Table& table, std::vector<uint32_t> ranking,
      const std::vector<std::string>& pattern_attributes = {});

  const BitmapIndex& index() const { return index_; }
  const PatternSpace& space() const { return index_.space(); }
  size_t num_rows() const { return index_.num_rows(); }
  /// Row ids in rank order: the index's ranking.
  const std::vector<uint32_t>& ranking() const { return index_.ranking(); }

  /// s_D of every pattern the searches over this index generation have
  /// counted (engine/size_memo.h). Every search reads and extends it,
  /// from any number of threads; it is empty until the first search.
  /// UpdateRanking replaces it when the row count changes.
  engine::SizeMemo& sizes() const { return *sizes_; }

  /// Checks k range and threshold against this input.
  Status ValidateConfig(const DetectionConfig& config) const;

  /// How UpdateRanking maintained the index.
  enum class Maintenance {
    kNoop,     ///< new ranking identical to the current one
    kPatched,  ///< suffix patched in place (BitmapIndex::ApplyRanking)
    kRebuilt,  ///< diff window exceeded the threshold; built from scratch
  };

  /// Outcome details of one UpdateRanking call.
  struct MaintenanceOutcome {
    Maintenance kind = Maintenance::kNoop;
    /// Rank positions in the diff window [first-divergence, n).
    size_t window = 0;
    /// Positions actually rewritten (kPatched only).
    size_t patched_positions = 0;
  };

  /// Re-targets this input at `new_ranking` over `table` (the original
  /// table, optionally extended by appended rows — see
  /// BitmapIndex::ApplyRanking for the contract). While the number of
  /// rank positions whose row changed is at most `rebuild_threshold`
  /// (a fraction of the new row count) the index is patched in place;
  /// beyond it, patching would rewrite most positions anyway, so the
  /// index is rebuilt from scratch. A re-rank keeps the size memo; a
  /// change of the row count (appended rows) replaces it with an empty
  /// one, so no search may run during the call. On error the input is
  /// unchanged.
  Status UpdateRanking(const Table& table, std::vector<uint32_t> new_ranking,
                       double rebuild_threshold,
                       MaintenanceOutcome* outcome = nullptr);

 private:
  explicit DetectionInput(BitmapIndex index);

  BitmapIndex index_;
  std::unique_ptr<engine::SizeMemo> sizes_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_DETECTION_RESULT_H_
