// Unit tests for the AuditSession serving layer: query dispatch, the
// keyed result cache and its invalidation rules, and the incremental
// ranking-maintenance entry points (score updates / row appends with
// the patch-vs-rebuild threshold).
#include "service/audit_session.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/table.h"

namespace fairtopk {
namespace {

/// Deterministic fixture: two pattern attributes plus a score column
/// biased against g=a, so detection finds real groups.
Table SessionTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("g", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddCategorical("r", {"x", "y", "z"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t g = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t r = static_cast<int16_t>(rng.UniformUint64(3));
    const double score =
        50.0 + (g == 1 ? 10.0 : 0.0) + rng.Gaussian() * 4.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(g), Cell::Code(r),
                                 Cell::Value(score)})
                    .ok());
  }
  return std::move(table).value();
}

AuditSession MakeSession(size_t rows, uint64_t seed,
                         SessionOptions options = {}) {
  auto session =
      AuditSession::Create(SessionTable(rows, seed), "score",
                           /*ascending=*/false, std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

api::AuditRequest PropQuery(int k_min, int k_max, int tau) {
  api::AuditRequest request;
  request.detector = "PropBounds";
  request.config.k_min = k_min;
  request.config.k_max = k_max;
  request.config.size_threshold = tau;
  PropBoundSpec bounds;
  bounds.alpha = 0.85;
  request.bounds = bounds;
  return request;
}

TEST(AuditSessionTest, CreateRejectsBadScoreColumn) {
  EXPECT_FALSE(
      AuditSession::Create(SessionTable(40, 1), "missing").ok());
  EXPECT_FALSE(AuditSession::Create(SessionTable(40, 1), "g").ok());
}

TEST(AuditSessionTest, CreateRejectsBadThreshold) {
  SessionOptions options;
  options.rebuild_threshold = 1.5;
  EXPECT_FALSE(
      AuditSession::Create(SessionTable(40, 1), "score", false, options)
          .ok());
}

TEST(AuditSessionTest, RankingIsSortedByScoreDescending) {
  AuditSession session = MakeSession(60, 2);
  const auto& ranking = session.ranking();
  ASSERT_EQ(ranking.size(), 60u);
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(session.scores()[ranking[i - 1]],
              session.scores()[ranking[i]]);
  }
}

TEST(AuditSessionTest, RepeatedQueryServesCachedSharedResult) {
  AuditSession session = MakeSession(80, 3);
  api::AuditRequest query = PropQuery(5, 30, 6);
  auto first = session.Detect(query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cached);
  ASSERT_NE(first->detector, nullptr);
  EXPECT_EQ(first->detector->name, "PropBounds");
  auto second = session.Detect(query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cached);
  EXPECT_EQ(first->result.get(), second->result.get());
  EXPECT_EQ(session.service_stats().detect_queries, 2u);
  EXPECT_EQ(session.service_stats().cache_hits, 1u);
  EXPECT_EQ(session.cache_size(), 1u);
}

TEST(AuditSessionTest, ResetStatsZeroesCountersButKeepsCache) {
  AuditSession session = MakeSession(80, 3);
  api::AuditRequest query = PropQuery(5, 30, 6);
  ASSERT_TRUE(session.Detect(query).ok());
  ASSERT_TRUE(session.Detect(query).ok());
  ASSERT_EQ(session.service_stats().detect_queries, 2u);

  session.ResetStats();
  const SessionServiceStats zeroed = session.service_stats();
  EXPECT_EQ(zeroed.detect_queries, 0u);
  EXPECT_EQ(zeroed.cache_hits, 0u);
  EXPECT_EQ(zeroed.coalesced_hits, 0u);
  EXPECT_EQ(zeroed.score_updates, 0u);
  // The reset covers the counters only — cached results survive, so a
  // bench iterating detect after ResetStats() still measures the
  // configuration it set up.
  EXPECT_EQ(session.cache_size(), 1u);

  // Counting resumes exactly from zero: one hit on the still-cached
  // entry.
  ASSERT_TRUE(session.Detect(query).ok());
  EXPECT_EQ(session.service_stats().detect_queries, 1u);
  EXPECT_EQ(session.service_stats().cache_hits, 1u);
}

TEST(AuditSessionTest, DistinctParametersMissTheCache) {
  AuditSession session = MakeSession(80, 3);
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 6)).ok());
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 7)).ok());
  api::AuditRequest other_alpha = PropQuery(5, 30, 6);
  std::get<PropBoundSpec>(other_alpha.bounds).alpha = 0.7;
  ASSERT_TRUE(session.Detect(other_alpha).ok());
  api::AuditRequest other_detector = PropQuery(5, 30, 6);
  other_detector.detector = "PropIterTD";
  ASSERT_TRUE(session.Detect(other_detector).ok());
  EXPECT_EQ(session.service_stats().cache_hits, 0u);
  EXPECT_EQ(session.cache_size(), 4u);
}

TEST(AuditSessionTest, CacheEvictsOldestBeyondCapacity) {
  SessionOptions options;
  options.cache_capacity = 1;
  AuditSession session = MakeSession(80, 4, options);
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 6)).ok());
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 7)).ok());  // evicts tau=6
  EXPECT_EQ(session.cache_size(), 1u);
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 6)).ok());  // miss again
  EXPECT_EQ(session.service_stats().cache_hits, 0u);
}

TEST(AuditSessionTest, ZeroCapacityDisablesCaching) {
  SessionOptions options;
  options.cache_capacity = 0;
  AuditSession session = MakeSession(80, 4, options);
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 6)).ok());
  ASSERT_TRUE(session.Detect(PropQuery(5, 30, 6)).ok());
  EXPECT_EQ(session.cache_size(), 0u);
  EXPECT_EQ(session.service_stats().cache_hits, 0u);
}

TEST(AuditSessionTest, ScoreUpdateInvalidatesCache) {
  AuditSession session = MakeSession(80, 5);
  api::AuditRequest query = PropQuery(5, 30, 6);
  ASSERT_TRUE(session.Detect(query).ok());
  // Jump the lowest-ranked row to the top: the permutation changes, so
  // the cached result must be dropped.
  const uint32_t last = session.ranking().back();
  ASSERT_TRUE(session.ApplyScoreUpdates({{last, 1e6}}).ok());
  EXPECT_EQ(session.cache_size(), 0u);
  EXPECT_EQ(session.ranking().front(), last);
  ASSERT_TRUE(session.Detect(query).ok());
  EXPECT_EQ(session.service_stats().cache_hits, 0u);
}

TEST(AuditSessionTest, PermutationPreservingUpdateKeepsCache) {
  AuditSession session = MakeSession(80, 5);
  api::AuditRequest query = PropQuery(5, 30, 6);
  auto first = session.Detect(query);
  ASSERT_TRUE(first.ok());
  // Re-assert a row's existing score: the ranking cannot change, so
  // every cached result is still exact and survives.
  const uint32_t row = session.ranking()[10];
  ASSERT_TRUE(
      session.ApplyScoreUpdates({{row, session.scores()[row]}}).ok());
  EXPECT_EQ(session.cache_size(), 1u);
  auto second = session.Detect(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->result.get(), second->result.get());
  EXPECT_EQ(session.service_stats().cache_hits, 1u);
  EXPECT_EQ(session.service_stats().index_patches, 0u);
  EXPECT_EQ(session.service_stats().index_rebuilds, 0u);
}

TEST(AuditSessionTest, LocalUpdatePatchesGlobalUpdateRebuilds) {
  // A small local perturbation stays under the default 0.5 threshold
  // and is patched in place; yanking the bottom row to rank 1 touches
  // (almost) every position and falls back to a rebuild.
  AuditSession session = MakeSession(100, 6);
  const auto& ranking = session.ranking();
  const uint32_t a = ranking[97];
  const uint32_t b = ranking[98];
  // Swap two adjacent bottom rows by nudging scores. The per-call
  // MaintenanceReport must agree with the global counters (and is the
  // concurrency-safe way to attribute the work to THIS call).
  MaintenanceReport report;
  ASSERT_TRUE(session
                  .ApplyScoreUpdates({{a, session.scores()[b] - 1e-9},
                                      {b, session.scores()[a] + 1e-9}},
                                     &report)
                  .ok());
  EXPECT_EQ(session.service_stats().index_patches, 1u);
  EXPECT_EQ(session.service_stats().index_rebuilds, 0u);
  EXPECT_LE(session.service_stats().positions_patched, 4u);
  EXPECT_EQ(report.kind, DetectionInput::Maintenance::kPatched);
  EXPECT_EQ(report.positions_patched,
            session.service_stats().positions_patched);

  const uint32_t last = session.ranking().back();
  ASSERT_TRUE(session.ApplyScoreUpdates({{last, 1e6}}, &report).ok());
  EXPECT_EQ(session.service_stats().index_rebuilds, 1u);
  EXPECT_EQ(report.kind, DetectionInput::Maintenance::kRebuilt);
  EXPECT_EQ(report.positions_patched, 0u);
}

TEST(AuditSessionTest, ThresholdExtremesForceEachPath) {
  SessionOptions rebuild_always;
  rebuild_always.rebuild_threshold = 0.0;
  AuditSession a = MakeSession(60, 7, rebuild_always);
  const uint32_t last_a = a.ranking().back();
  const double top_score = a.scores()[a.ranking().front()];
  ASSERT_TRUE(a.ApplyScoreUpdates({{last_a, top_score + 1.0}}).ok());
  EXPECT_EQ(a.service_stats().index_rebuilds, 1u);
  EXPECT_EQ(a.service_stats().index_patches, 0u);

  SessionOptions patch_always;
  patch_always.rebuild_threshold = 1.0;
  AuditSession b = MakeSession(60, 7, patch_always);
  const uint32_t first_b = b.ranking().front();
  ASSERT_TRUE(b.ApplyScoreUpdates({{first_b, -1e6}}).ok());
  EXPECT_EQ(b.service_stats().index_rebuilds, 0u);
  EXPECT_EQ(b.service_stats().index_patches, 1u);
}

TEST(AuditSessionTest, PatchedSessionMatchesRebuiltSession) {
  SessionOptions patch_always;
  patch_always.rebuild_threshold = 1.0;
  SessionOptions rebuild_always;
  rebuild_always.rebuild_threshold = 0.0;
  AuditSession patched = MakeSession(90, 8, patch_always);
  AuditSession rebuilt = MakeSession(90, 8, rebuild_always);
  Rng rng(42);
  std::vector<ScoreUpdate> updates;
  for (int i = 0; i < 12; ++i) {
    updates.push_back({static_cast<uint32_t>(rng.UniformUint64(90)),
                       40.0 + rng.Gaussian() * 12.0});
  }
  ASSERT_TRUE(patched.ApplyScoreUpdates(updates).ok());
  ASSERT_TRUE(rebuilt.ApplyScoreUpdates(updates).ok());
  EXPECT_EQ(patched.ranking(), rebuilt.ranking());
  api::AuditRequest query = PropQuery(5, 40, 8);
  auto p = patched.Detect(query);
  auto r = rebuilt.Detect(query);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(r.ok());
  for (int k = 5; k <= 40; ++k) {
    EXPECT_EQ(p->result->AtK(k), r->result->AtK(k)) << "k=" << k;
  }
}

TEST(AuditSessionTest, RepairAndMergeRerankAgree) {
  SessionOptions repair;
  repair.repair_rerank_max_batch = static_cast<size_t>(-1);
  SessionOptions merge;
  merge.repair_rerank_max_batch = 0;
  AuditSession a = MakeSession(120, 21, repair);
  AuditSession b = MakeSession(120, 21, merge);
  Rng rng(5);
  for (int step = 0; step < 6; ++step) {
    std::vector<ScoreUpdate> updates;
    for (int i = 0; i < 15; ++i) {
      updates.push_back({static_cast<uint32_t>(rng.UniformUint64(120)),
                         40.0 + rng.Gaussian() * 15.0});
    }
    ASSERT_TRUE(a.ApplyScoreUpdates(updates).ok());
    ASSERT_TRUE(b.ApplyScoreUpdates(updates).ok());
    ASSERT_EQ(a.ranking(), b.ranking()) << "step " << step;
  }
  EXPECT_EQ(a.scores(), b.scores());
}

TEST(AuditSessionTest, DuplicateUpdatesLastWins) {
  AuditSession session = MakeSession(50, 9);
  const uint32_t row = session.ranking()[25];
  ASSERT_TRUE(
      session.ApplyScoreUpdates({{row, 1e6}, {row, -1e6}}).ok());
  EXPECT_DOUBLE_EQ(session.scores()[row], -1e6);
  EXPECT_EQ(session.ranking().back(), row);
}

TEST(AuditSessionTest, UpdateRejectsOutOfRangeRow) {
  AuditSession session = MakeSession(50, 9);
  EXPECT_FALSE(session.ApplyScoreUpdates({{50, 1.0}}).ok());
  // Failed validation leaves the session untouched.
  EXPECT_EQ(session.service_stats().score_updates, 0u);
}

// NaN and infinite scores rank nowhere, so every entry point that takes
// scores refuses them, names the row, and leaves the session as it was.
TEST(AuditSessionTest, NonFiniteScoresAreRefusedAtEveryEntryPoint) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(std::to_string(bad));
    const auto expect_refused = [](const Status& status,
                                   const std::string& row) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("score of row " + row + " is not"),
                std::string::npos)
          << status.ToString();
    };

    // Create over a table whose score column holds the value.
    Table table = SessionTable(30, 14);
    ASSERT_TRUE(
        table.AppendRow({Cell::Code(0), Cell::Code(0), Cell::Value(bad)})
            .ok());
    expect_refused(AuditSession::Create(table, "score").status(), "30");

    std::vector<double> scores(30, 1.0);
    scores[7] = bad;
    expect_refused(
        AuditSession::CreateWithScores(SessionTable(30, 14), scores)
            .status(),
        "7");

    AuditSession session = MakeSession(30, 14);
    const std::vector<uint32_t> ranking = session.ranking();
    const std::vector<double> before = session.scores();
    expect_refused(session.ApplyScoreUpdates({{3, 2.0}, {5, bad}}), "5");
    expect_refused(session.AppendRows({{Cell::Code(0), Cell::Code(1),
                                        Cell::Value(1.0)},
                                       {Cell::Code(1), Cell::Code(1),
                                        Cell::Value(bad)}}),
                   "31");
    expect_refused(
        session.AppendRowsWithScores(
            {{Cell::Code(0), Cell::Code(1), Cell::Value(1.0)}}, {bad}),
        "30");
    EXPECT_EQ(session.ranking(), ranking);
    EXPECT_EQ(session.scores(), before);
    EXPECT_EQ(session.num_rows(), 30u);
    EXPECT_EQ(session.service_stats().score_updates, 0u);
    EXPECT_EQ(session.service_stats().appends, 0u);
  }
}

TEST(AuditSessionTest, AppendExtendsDatasetAndRanking) {
  AuditSession session = MakeSession(50, 10);
  api::AuditRequest query = PropQuery(5, 30, 5);
  ASSERT_TRUE(session.Detect(query).ok());
  // One unbeatable row and one bottom row.
  ASSERT_TRUE(session
                  .AppendRows({{Cell::Code(0), Cell::Code(1),
                                Cell::Value(1e6)},
                               {Cell::Code(1), Cell::Code(2),
                                Cell::Value(-1e6)}})
                  .ok());
  EXPECT_EQ(session.num_rows(), 52u);
  EXPECT_EQ(session.table().num_rows(), 52u);
  EXPECT_EQ(session.scores().size(), 52u);
  EXPECT_EQ(session.ranking().front(), 50u);
  EXPECT_EQ(session.ranking().back(), 51u);
  EXPECT_EQ(session.cache_size(), 0u);  // appends invalidate
  auto after = session.Detect(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(session.service_stats().rows_appended, 2u);
}

TEST(AuditSessionTest, AppendValidatesBeforeMutating) {
  AuditSession session = MakeSession(50, 10);
  // Wrong arity.
  EXPECT_FALSE(session.AppendRows({{Cell::Code(0)}}).ok());
  // Out-of-domain code.
  EXPECT_FALSE(session
                   .AppendRows({{Cell::Code(7), Cell::Code(0),
                                 Cell::Value(1.0)}})
                   .ok());
  // Code cell in the numeric score slot.
  EXPECT_FALSE(session
                   .AppendRows({{Cell::Code(0), Cell::Code(0),
                                 Cell::Code(1)}})
                   .ok());
  // A bad row anywhere in the batch rejects the whole batch.
  EXPECT_FALSE(session
                   .AppendRows({{Cell::Code(0), Cell::Code(0),
                                 Cell::Value(1.0)},
                                {Cell::Code(0), Cell::Code(9),
                                 Cell::Value(2.0)}})
                   .ok());
  EXPECT_EQ(session.num_rows(), 50u);
  EXPECT_EQ(session.service_stats().appends, 0u);
}

TEST(AuditSessionTest, ScorelessSessionNeedsExplicitScores) {
  Table table = SessionTable(40, 11);
  std::vector<double> scores;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    scores.push_back(table.ValueAt(r, 2));
  }
  auto session = AuditSession::CreateWithScores(table, scores);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(
      session->AppendRows({{Cell::Code(0), Cell::Code(0), Cell::Value(1.0)}})
          .ok());
  ASSERT_TRUE(session
                  ->AppendRowsWithScores(
                      {{Cell::Code(0), Cell::Code(0), Cell::Value(1.0)}},
                      {123.0})
                  .ok());
  EXPECT_EQ(session->num_rows(), 41u);
  EXPECT_EQ(session->ranking().front(), 40u);
}

TEST(AuditSessionTest, DetectValidatesConfig) {
  AuditSession session = MakeSession(40, 12);
  api::AuditRequest query = PropQuery(5, 400, 4);  // k_max > |D|
  EXPECT_FALSE(session.Detect(query).ok());
}

TEST(AuditSessionTest, DetectRejectsUnknownDetectorAndWrongBounds) {
  AuditSession session = MakeSession(40, 12);
  api::AuditRequest unknown = PropQuery(5, 20, 4);
  unknown.detector = "NoSuchDetector";
  EXPECT_FALSE(session.Detect(unknown).ok());
  // A request whose bounds variant does not match the detector's
  // declared kind is rejected before anything runs.
  api::AuditRequest mismatched = PropQuery(5, 20, 4);
  mismatched.bounds = GlobalBoundSpec{};
  EXPECT_FALSE(session.Detect(mismatched).ok());
  EXPECT_EQ(session.service_stats().detect_queries, 0u);
}

TEST(AuditSessionTest, AllRegisteredDetectorsDispatch) {
  AuditSession session = MakeSession(80, 13);
  const api::DetectorRegistry& registry = api::DetectorRegistry::Global();
  ASSERT_EQ(registry.detectors().size(), 6u);
  for (const api::DetectorDescriptor& descriptor : registry.detectors()) {
    api::AuditRequest query = PropQuery(5, 30, 6);
    query.detector = descriptor.name;
    if (descriptor.bounds_kind == api::BoundsKind::kGlobal) {
      GlobalBoundSpec bounds;
      bounds.lower = StepFunction::Constant(3.0);
      bounds.upper = StepFunction::Constant(25.0);
      query.bounds = bounds;
    } else {
      std::get<PropBoundSpec>(query.bounds).beta = 1.5;
    }
    auto result = session.Detect(query);
    ASSERT_TRUE(result.ok())
        << descriptor.name << ": " << result.status().ToString();
    EXPECT_EQ(result->detector, &descriptor);
  }
  EXPECT_EQ(session.cache_size(), 6u);
}

TEST(AuditSessionTest, SuggestVerifyRepairForward) {
  AuditSession session = MakeSession(100, 14);
  DetectionConfig config{5, 40, 8};
  auto suggestion = session.Suggest(config, SuggestOptions{});
  ASSERT_TRUE(suggestion.ok());
  EXPECT_GT(suggestion->size_threshold, 0);

  Pattern group = Pattern::Empty(2).With(0, 0);  // g=a
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(4.0);
  auto report = session.VerifyGlobal(group, bounds, config);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->size_in_d, 0u);

  auto repair =
      session.Repair({{group, StepFunction::Constant(2.0)}}, config);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->feasible);
}

TEST(AuditSessionTest, DetectManyDedupesIdenticalCacheKeys) {
  SessionOptions options;
  options.cache_capacity = 0;  // in-batch dedup is the only sharing
  AuditSession session = MakeSession(80, 16, options);
  api::AuditRequest a = PropQuery(5, 30, 6);
  api::AuditRequest b = PropQuery(5, 30, 7);
  auto responses = session.DetectMany({a, b, a});
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 3u);
  EXPECT_FALSE((*responses)[0].cached);
  EXPECT_FALSE((*responses)[1].cached);
  // The repeated request shares run 0.
  EXPECT_TRUE((*responses)[2].cached);
  EXPECT_EQ((*responses)[0].result.get(), (*responses)[2].result.get());
  EXPECT_NE((*responses)[0].result.get(), (*responses)[1].result.get());
  EXPECT_EQ(session.service_stats().detect_queries, 3u);
  EXPECT_EQ(session.service_stats().cache_hits, 1u);
}

TEST(AuditSessionTest, DetectManyMatchesSequentialDetects) {
  AuditSession batched = MakeSession(80, 17);
  AuditSession sequential = MakeSession(80, 17);
  std::vector<api::AuditRequest> requests = {
      PropQuery(5, 30, 6), PropQuery(5, 25, 6), PropQuery(5, 30, 6)};
  auto responses = batched.DetectMany(requests);
  ASSERT_TRUE(responses.ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto one = sequential.Detect(requests[i]);
    ASSERT_TRUE(one.ok());
    for (int k = requests[i].config.k_min; k <= requests[i].config.k_max;
         ++k) {
      EXPECT_EQ((*responses)[i].result->AtK(k), one->result->AtK(k))
          << "request " << i << " k=" << k;
    }
  }
  EXPECT_EQ(batched.service_stats().cache_hits,
            sequential.service_stats().cache_hits);
}

TEST(AuditSessionTest, DetectManyAbortsOnFirstBadRequest) {
  AuditSession session = MakeSession(40, 18);
  api::AuditRequest bad = PropQuery(5, 400, 4);  // k_max > |D|
  EXPECT_FALSE(session.DetectMany({PropQuery(5, 20, 4), bad}).ok());
}

}  // namespace
}  // namespace fairtopk
