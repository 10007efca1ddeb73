// Tests for the streaming result delivery layer: the ResultSink
// contract (ascending ks, one OnStats after the last k, abort on sink
// error) and the defining equivalence — for every registered detector,
// the streamed per-k batches are bit-identical to the materialized
// Result<DetectionResult> path.
#include "detect/engine/result_sink.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "api/audit.h"
#include "api/detector_registry.h"
#include "common/rng.h"
#include "relation/table.h"

namespace fairtopk {
namespace {

/// Records the full call sequence.
class RecordingSink : public ResultSink {
 public:
  Status OnResult(int k, std::vector<Pattern> patterns) override {
    ks.push_back(k);
    batches.push_back(std::move(patterns));
    return fail_at_k == k ? Status::Internal("sink says stop")
                          : Status::OK();
  }
  void OnStats(const DetectionStats& stats) override {
    ++stats_calls;
    last_stats = stats;
  }

  std::vector<int> ks;
  std::vector<std::vector<Pattern>> batches;
  int stats_calls = 0;
  DetectionStats last_stats;
  int fail_at_k = -1;
};

/// Small deterministic input biased against g=a.
DetectionInput TestInput(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("g", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddCategorical("r", {"x", "y", "z"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  std::vector<double> scores;
  for (size_t i = 0; i < rows; ++i) {
    const int16_t g = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t r = static_cast<int16_t>(rng.UniformUint64(3));
    const double score =
        50.0 + (g == 1 ? 10.0 : 0.0) + rng.Gaussian() * 4.0;
    scores.push_back(score);
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(g), Cell::Code(r),
                                 Cell::Value(score)})
                    .ok());
  }
  std::vector<uint32_t> ranking(rows);
  std::iota(ranking.begin(), ranking.end(), 0u);
  std::sort(ranking.begin(), ranking.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  auto input = DetectionInput::PrepareWithRanking(*table, ranking);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  return std::move(input).value();
}

api::AuditRequest RequestFor(const api::DetectorDescriptor& descriptor) {
  api::AuditRequest request;
  request.detector = descriptor.name;
  request.config.k_min = 5;
  request.config.k_max = 25;
  request.config.size_threshold = 6;
  if (descriptor.bounds_kind == api::BoundsKind::kGlobal) {
    GlobalBoundSpec bounds;
    bounds.lower = StepFunction::Constant(3.0);
    bounds.upper = StepFunction::Constant(12.0);
    request.bounds = bounds;
  } else {
    PropBoundSpec bounds;
    bounds.alpha = 0.85;
    bounds.beta = 1.4;
    request.bounds = bounds;
  }
  return request;
}

TEST(ResultSinkTest, StreamedBatchesMatchMaterializedResultForAllDetectors) {
  DetectionInput input = TestInput(90, 3);
  for (const api::DetectorDescriptor& descriptor :
       api::DetectorRegistry::Global().detectors()) {
    const api::AuditRequest request = RequestFor(descriptor);
    RecordingSink streamed;
    ASSERT_TRUE(api::RunAuditStream(input, request, streamed).ok())
        << descriptor.name;
    auto materialized = api::RunAudit(input, request);
    ASSERT_TRUE(materialized.ok()) << descriptor.name;

    // Contract: strictly ascending ks covering [k_min, k_max], one
    // OnStats after the last batch.
    ASSERT_EQ(streamed.ks.size(), 21u) << descriptor.name;
    for (size_t i = 0; i < streamed.ks.size(); ++i) {
      EXPECT_EQ(streamed.ks[i], 5 + static_cast<int>(i));
    }
    EXPECT_EQ(streamed.stats_calls, 1);

    // Equivalence: identical per-k sets and identical work counters.
    for (int k = 5; k <= 25; ++k) {
      EXPECT_EQ(streamed.batches[static_cast<size_t>(k - 5)],
                materialized->AtK(k))
          << descriptor.name << " k=" << k;
    }
    EXPECT_EQ(streamed.last_stats.nodes_visited,
              materialized->stats().nodes_visited)
        << descriptor.name;
    EXPECT_EQ(streamed.last_stats.cursor_reuse_hits,
              materialized->stats().cursor_reuse_hits)
        << descriptor.name;
  }
}

TEST(ResultSinkTest, SinkErrorAbortsTheRun) {
  DetectionInput input = TestInput(60, 4);
  for (const api::DetectorDescriptor& descriptor :
       api::DetectorRegistry::Global().detectors()) {
    RecordingSink sink;
    sink.fail_at_k = 9;
    Status status =
        api::RunAuditStream(input, RequestFor(descriptor), sink);
    EXPECT_FALSE(status.ok()) << descriptor.name;
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    // The run stopped at the failing k: no further batches, no stats.
    EXPECT_EQ(sink.ks.back(), 9) << descriptor.name;
    EXPECT_EQ(sink.stats_calls, 0) << descriptor.name;
  }
}

// Every search runs on the calling thread, so any thread count but 1
// is an invalid request, for every detector and both entry points.
TEST(ResultSinkTest, ThreadCountOtherThanOneIsInvalid) {
  DetectionInput input = TestInput(60, 4);
  for (const api::DetectorDescriptor& descriptor :
       api::DetectorRegistry::Global().detectors()) {
    for (int threads : {0, 4}) {
      api::AuditRequest request = RequestFor(descriptor);
      request.config.num_threads = threads;
      auto result = api::RunAudit(input, request);
      ASSERT_FALSE(result.ok()) << descriptor.name << " threads=" << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      RecordingSink sink;
      EXPECT_EQ(api::RunAuditStream(input, request, sink).code(),
                StatusCode::kInvalidArgument)
          << descriptor.name << " threads=" << threads;
      EXPECT_TRUE(sink.ks.empty()) << descriptor.name;
    }
  }
}

}  // namespace
}  // namespace fairtopk
