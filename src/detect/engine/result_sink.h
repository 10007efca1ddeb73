// Streaming delivery of detection results.
//
// Every detection algorithm finalizes its violation set one k at a
// time (ITERTD and the upper-bound detectors run a search per k, the
// incremental GLOBALBOUNDS/PROPBOUNDS mutate a carried result set
// between ks). A ResultSink receives each finalized batch the moment
// it exists, so a caller can forward, aggregate, or discard per-k
// results without the whole DetectionResult ever being materialized.
// The Result<DetectionResult> entry points, which the session and the
// tools serve, are a MaterializingSink away (MaterializeStream below);
// only they attach each group's counts.
//
// Contract (enforced by the engine's StreamPerK driver, which every
// detector emits through):
//   * OnResult(k, patterns) is called exactly once per k, with k
//     strictly ascending over [k_min, k_max]; `patterns` is the final
//     sorted violation set for that k.
//   * OnStats(stats) is called exactly once, after the last OnResult,
//     with the run's work counters (wall clock included).
//   * A non-OK status returned by OnResult aborts the detection; the
//     algorithm returns that status without calling OnStats.
#ifndef FAIRTOPK_DETECT_ENGINE_RESULT_SINK_H_
#define FAIRTOPK_DETECT_ENGINE_RESULT_SINK_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "detect/detection_result.h"
#include "pattern/pattern.h"

namespace fairtopk {

/// Visitor receiving one detection run's per-k violation sets as they
/// are finalized. See the file comment for the call contract.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// One k's final sorted violation set. Returning an error aborts the
  /// run (the detector propagates the status and stops searching).
  virtual Status OnResult(int k, std::vector<Pattern> patterns) = 0;

  /// The run's work counters, delivered once after the last k.
  virtual void OnStats(const DetectionStats& /*stats*/) {}
};

/// Adapter collecting a streamed run into a DetectionResult — the
/// bridge that keeps the Result<DetectionResult> detector signatures
/// intact on top of the streaming core.
class MaterializingSink : public ResultSink {
 public:
  MaterializingSink(int k_min, int k_max) : result_(k_min, k_max) {}

  Status OnResult(int k, std::vector<Pattern> patterns) override {
    result_.MutableAtK(k) = std::move(patterns);
    return Status::OK();
  }

  void OnStats(const DetectionStats& stats) override {
    result_.stats() = stats;
  }

  /// The collected result; valid after the run returned OK.
  DetectionResult TakeResult() && { return std::move(result_); }

 private:
  DetectionResult result_;
};

/// Runs a streaming detector entry point into a MaterializingSink and
/// returns the collected DetectionResult, each group's counts stored
/// (DetectionResult::CountGroups) from the input the run searched —
/// the shared body of every Detect* materializing wrapper. The config
/// is validated here first: the sink's (k_min, k_max) allocation must
/// not happen on an invalid range (the stream function re-validates,
/// which is cheap and keeps it safe to call directly).
template <typename StreamFn>
Result<DetectionResult> MaterializeStream(const DetectionInput& input,
                                          const DetectionConfig& config,
                                          const StreamFn& stream) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  MaterializingSink sink(config.k_min, config.k_max);
  FAIRTOPK_RETURN_IF_ERROR(stream(static_cast<ResultSink&>(sink)));
  DetectionResult result = std::move(sink).TakeResult();
  result.CountGroups(input);
  return result;
}

}  // namespace fairtopk

#endif  // FAIRTOPK_DETECT_ENGINE_RESULT_SINK_H_
