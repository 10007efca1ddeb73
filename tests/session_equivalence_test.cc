// Property suite for the session layer's incremental maintenance: an
// AuditSession that absorbed N random ApplyScoreUpdates / AppendRows
// steps (patching or rebuilding its index per the threshold) must be
// indistinguishable from a session freshly built from the final table
// and scores — same ranking permutation, and bit-identical
// DetectionResults with equal work counters for every detector. A
// second suite checks the session input's size memo through such
// steps.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/audit.h"
#include "common/rng.h"
#include "detect/engine/size_memo.h"
#include "relation/table.h"
#include "service/audit_session.h"
#include "service/jsonl_service.h"
#include "test_util.h"

namespace fairtopk {
namespace {

struct SessionCase {
  uint64_t seed;
  size_t rows;
  int steps;
  double rebuild_threshold;
  /// SessionOptions::repair_rerank_max_batch — 0 forces the
  /// region-merge re-rank, a large value forces per-row insertion
  /// repair.
  size_t repair_max_batch;
  /// Rank ascending by score — every maintenance path negates sort
  /// keys for ascending sessions, so both directions must be covered.
  bool ascending = false;
};

std::vector<SessionCase> Cases() {
  return {
      // Thresholds pin the index-maintenance mode (1.0 = always patch,
      // 0.0 = always rebuild, 0.5 = data-dependent mix) and the
      // re-rank strategy (0 = merge, 1000 = repair), so every
      // combination of the two incremental layers is exercised — in
      // both ranking directions.
      {31, 120, 6, 1.0, 1000},
      {32, 160, 8, 0.0, 1000},
      {33, 200, 8, 0.5, 0},
      {34, 140, 10, 0.5, 1000, /*ascending=*/true},
      {35, 180, 6, 1.0, 0},
      {36, 150, 8, 0.0, 0, /*ascending=*/true},
      {37, 130, 8, 1.0, 0, /*ascending=*/true},
  };
}

Table PropertyTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("g", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddCategorical("r", {"x", "y", "z"}).ok());
  EXPECT_TRUE(schema.AddCategorical("q", {"u", "v"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t g = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t r = static_cast<int16_t>(rng.UniformUint64(3));
    const int16_t q = static_cast<int16_t>(rng.UniformUint64(2));
    const double score = 50.0 + (g == 1 ? 6.0 : 0.0) +
                         (r == 2 ? 3.0 : 0.0) + rng.Gaussian() * 5.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(g), Cell::Code(r), Cell::Code(q),
                                 Cell::Value(score)})
                    .ok());
  }
  return std::move(table).value();
}

class SessionEquivalenceTest : public ::testing::TestWithParam<SessionCase> {
 protected:
  void SetUp() override {
    const SessionCase& c = GetParam();
    SessionOptions options;
    options.rebuild_threshold = c.rebuild_threshold;
    options.repair_rerank_max_batch = c.repair_max_batch;
    auto session = AuditSession::Create(PropertyTable(c.rows, c.seed),
                                        "score", c.ascending, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_.emplace(std::move(session).value());

    // Drive the session through a random mix of maintenance steps,
    // with interleaved queries so cache invalidation is exercised
    // mid-stream too.
    Rng rng(c.seed * 7919 + 17);
    for (int step = 0; step < c.steps; ++step) {
      if (rng.Bernoulli(0.6)) {
        const size_t m = 1 + rng.UniformUint64(10);
        std::vector<ScoreUpdate> updates;
        for (size_t i = 0; i < m; ++i) {
          const uint32_t row = static_cast<uint32_t>(
              rng.UniformUint64(session_->num_rows()));
          double score = session_->scores()[row];
          if (rng.Bernoulli(0.5)) {
            score += rng.Gaussian() * 0.2;  // local move
          } else {
            score = 50.0 + rng.Gaussian() * 8.0;  // global move
          }
          updates.push_back({row, score});
        }
        ASSERT_TRUE(session_->ApplyScoreUpdates(updates).ok());
      } else {
        const size_t m = 1 + rng.UniformUint64(4);
        std::vector<std::vector<Cell>> rows;
        for (size_t i = 0; i < m; ++i) {
          rows.push_back(
              {Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
               Cell::Code(static_cast<int16_t>(rng.UniformUint64(3))),
               Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
               Cell::Value(50.0 + rng.Gaussian() * 8.0)});
        }
        ASSERT_TRUE(session_->AppendRows(rows).ok());
      }
      if (step % 2 == 0) {
        ASSERT_TRUE(session_->Detect(Query("PropBounds")).ok());
      }
    }

    // The from-scratch reference: same final table, same authoritative
    // scores, full sort + full index build. CreateWithScores always
    // ranks descending with ties by row id, so ascending sessions are
    // mirrored by negating the scores — the same total order the
    // session's key negation encodes.
    std::vector<double> reference_scores = session_->scores();
    if (c.ascending) {
      for (double& s : reference_scores) s = -s;
    }
    auto fresh = AuditSession::CreateWithScores(
        session_->table(), std::move(reference_scores));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    fresh_.emplace(std::move(fresh).value());
  }

  api::AuditRequest Query(const std::string& detector) const {
    const SessionCase& c = GetParam();
    api::AuditRequest query;
    query.detector = detector;
    query.config.k_min = 5;
    query.config.k_max = static_cast<int>(c.rows / 2);
    query.config.size_threshold = static_cast<int>(c.rows / 15);
    const api::DetectorDescriptor* descriptor =
        api::DetectorRegistry::Global().Find(detector);
    EXPECT_NE(descriptor, nullptr) << detector;
    if (descriptor->bounds_kind == api::BoundsKind::kGlobal) {
      GlobalBoundSpec bounds;
      bounds.lower = StepFunction::Constant(0.25 * query.config.k_min + 2.0);
      bounds.upper = StepFunction::Constant(0.5 * query.config.k_min + 2.0);
      query.bounds = bounds;
    } else {
      PropBoundSpec bounds;
      bounds.alpha = 0.85;
      bounds.beta = 1.4;
      query.bounds = bounds;
    }
    return query;
  }

  void ExpectEquivalent(const std::string& detector) {
    ASSERT_EQ(session_->ranking(), fresh_->ranking());
    auto incremental = session_->Detect(Query(detector));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    auto scratch = fresh_->Detect(Query(detector));
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    const DetectionResult& a = *incremental->result;
    const DetectionResult& b = *scratch->result;
    ASSERT_EQ(a.k_min(), b.k_min());
    ASSERT_EQ(a.k_max(), b.k_max());
    for (int k = a.k_min(); k <= a.k_max(); ++k) {
      ASSERT_EQ(a.AtK(k), b.AtK(k))
          << "seed=" << GetParam().seed << " detector=" << detector
          << " k=" << k;
    }
    // Work counters are a pure function of (index, config): equal
    // counters are strong evidence the patched index is bit-exact.
    EXPECT_EQ(a.stats().nodes_visited, b.stats().nodes_visited);
    EXPECT_EQ(a.stats().cursor_reuse_hits, b.stats().cursor_reuse_hits);
  }

  std::optional<AuditSession> session_;
  std::optional<AuditSession> fresh_;
};

TEST_P(SessionEquivalenceTest, GlobalIterTD) {
  ExpectEquivalent("GlobalIterTD");
}

TEST_P(SessionEquivalenceTest, PropIterTD) {
  ExpectEquivalent("PropIterTD");
}

TEST_P(SessionEquivalenceTest, GlobalBounds) {
  ExpectEquivalent("GlobalBounds");
}

TEST_P(SessionEquivalenceTest, PropBounds) {
  ExpectEquivalent("PropBounds");
}

TEST_P(SessionEquivalenceTest, GlobalUpperBounds) {
  ExpectEquivalent("GlobalUpperBounds");
}

TEST_P(SessionEquivalenceTest, PropUpperBounds) {
  ExpectEquivalent("PropUpperBounds");
}

TEST_P(SessionEquivalenceTest, MaintenanceStatsInvariants) {
  const SessionCase& c = GetParam();
  const SessionServiceStats& stats = session_->service_stats();
  // Every step was an update or an append...
  EXPECT_EQ(stats.score_updates + stats.appends,
            static_cast<uint64_t>(c.steps));
  // ...and each either left the permutation alone or maintained the
  // index exactly once.
  EXPECT_LE(stats.index_patches + stats.index_rebuilds,
            static_cast<uint64_t>(c.steps));
  if (c.rebuild_threshold == 0.0) {
    EXPECT_EQ(stats.index_patches, 0u);
  }
  if (c.rebuild_threshold == 1.0) {
    EXPECT_EQ(stats.index_rebuilds, 0u);
  }
  // Appends always change the row count, so they always maintain.
  EXPECT_GE(stats.index_patches + stats.index_rebuilds, stats.appends);
  // The fresh session did no maintenance at all.
  EXPECT_EQ(fresh_->service_stats().index_patches, 0u);
  EXPECT_EQ(fresh_->service_stats().index_rebuilds, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomizedMaintenance, SessionEquivalenceTest,
                         ::testing::ValuesIn(Cases()));

// The session input's size memo under maintenance: random updates and
// appends interleaved with random detects. After every step, each size
// the memo holds equals PatternCount on the current index (an update
// keeps the memo, an append replaces it with an empty one), and each
// detect equals the same detect on a freshly built input, counts
// included.
TEST(SizeMemoMaintenanceTest, MemoMatchesTheIndexAfterEveryStep) {
  const std::vector<std::string> detectors = {
      "GlobalIterTD", "GlobalBounds",      "PropIterTD",
      "PropBounds",   "GlobalUpperBounds", "PropUpperBounds"};
  for (uint64_t seed : {61u, 62u, 63u}) {
    SessionOptions options;
    options.cache_capacity = 0;
    options.rebuild_threshold = seed == 62 ? 0.0 : 0.5;
    auto session =
        AuditSession::Create(PropertyTable(140, seed), "score", false, options);
    ASSERT_TRUE(session.ok());
    const PatternSpace& space = session->space();
    const std::vector<Pattern> patterns = testing::AllPatterns(space);
    Rng rng(seed);
    for (int step = 0; step < 12; ++step) {
      const size_t held = session->input().sizes().nodes();
      const bool append = rng.Bernoulli(0.35);
      if (append) {
        std::vector<std::vector<Cell>> rows;
        for (size_t i = 0, m = 1 + rng.UniformUint64(4); i < m; ++i) {
          rows.push_back(
              {Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
               Cell::Code(static_cast<int16_t>(rng.UniformUint64(3))),
               Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
               Cell::Value(50.0 + rng.Gaussian() * 8.0)});
        }
        ASSERT_TRUE(session->AppendRows(rows).ok());
        EXPECT_EQ(session->input().sizes().nodes(), 0u) << "step " << step;
      } else {
        std::vector<ScoreUpdate> updates;
        for (size_t i = 0, m = 1 + rng.UniformUint64(12); i < m; ++i) {
          updates.push_back(
              {static_cast<uint32_t>(rng.UniformUint64(session->num_rows())),
               50.0 + rng.Gaussian() * 8.0});
        }
        ASSERT_TRUE(session->ApplyScoreUpdates(updates).ok());
        EXPECT_EQ(session->input().sizes().nodes(), held) << "step " << step;
      }

      auto fresh = DetectionInput::PrepareWithRanking(session->table(),
                                                      session->ranking());
      ASSERT_TRUE(fresh.ok());
      for (int d = 0; d < 2; ++d) {
        api::AuditRequest query;
        query.detector = detectors[rng.UniformUint64(detectors.size())];
        query.config.k_min = 1 + static_cast<int>(rng.UniformUint64(10));
        query.config.k_max =
            query.config.k_min + static_cast<int>(rng.UniformUint64(50));
        query.config.size_threshold =
            3 + static_cast<int>(rng.UniformUint64(12));
        if (api::DetectorRegistry::Global().Find(query.detector)->bounds_kind ==
            api::BoundsKind::kGlobal) {
          GlobalBoundSpec bounds;
          bounds.lower = StepFunction::Constant(2.0 + rng.UniformUint64(4));
          bounds.upper = StepFunction::Constant(6.0 + rng.UniformUint64(4));
          query.bounds = bounds;
        } else {
          PropBoundSpec bounds;
          bounds.alpha = 0.6 + 0.1 * static_cast<double>(rng.UniformUint64(4));
          bounds.beta = 1.4;
          query.bounds = bounds;
        }
        auto served = session->Detect(query);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        auto reference = api::RunAudit(*fresh, query);
        ASSERT_TRUE(reference.ok());
        const DetectionResult& a = *served->result;
        const DetectionResult& b = *reference;
        for (int k = a.k_min(); k <= a.k_max(); ++k) {
          ASSERT_EQ(a.AtK(k), b.AtK(k))
              << "seed=" << seed << " step=" << step << " "
              << query.detector << " k=" << k;
          ASSERT_EQ(a.CountsAtK(k), b.CountsAtK(k))
              << "seed=" << seed << " step=" << step << " "
              << query.detector << " k=" << k;
        }
        EXPECT_EQ(a.stats().nodes_visited, b.stats().nodes_visited);
      }

      engine::SizeMemo& memo = session->input().sizes();
      EXPECT_GT(memo.nodes(), 0u);
      for (const Pattern& p : patterns) {
        const size_t stored = memo.size(memo.Locate(p));
        if (stored == engine::SizeMemo::kUnknown) continue;
        ASSERT_EQ(stored, session->input().index().PatternCount(p))
            << "seed=" << seed << " step=" << step << " "
            << p.ToString(space);
      }
    }
  }
}

// Wire contract pin: an `update` batch with duplicate row ids is
// last-write-wins — byte-for-byte equivalent to a batch holding only
// each row's final entry — under BOTH re-rank strategies (0 forces
// the region-merge path, 1000 per-row insertion repair), so the
// JSONL layer's collapse, not strategy-dependent session internals,
// defines the semantics.
TEST(SessionUpdateLastWriteWinsTest, DuplicateRowsEqualFinalEntryBatch) {
  for (size_t repair_max_batch : {size_t{0}, size_t{1000}}) {
    SessionOptions options;
    options.repair_rerank_max_batch = repair_max_batch;
    auto duplicated = AuditSession::Create(PropertyTable(150, 41), "score",
                                           false, options);
    auto collapsed = AuditSession::Create(PropertyTable(150, 41), "score",
                                          false, options);
    ASSERT_TRUE(duplicated.ok());
    ASSERT_TRUE(collapsed.ok());

    ServeDefaults defaults;
    defaults.config = DetectionConfig{5, 40, 8};
    JsonlService service(&duplicated.value(), defaults);
    // Rows 3 and 7 appear twice; their LAST scores (91 and 12) must
    // be the ones applied.
    const std::string response = service.HandleLine(
        R"({"op":"update","scores":)"
        R"([[3,55.0],[7,99.0],[3,91.0],[12,70.0],[7,12.0]]})");
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"rows_updated\":3"), std::string::npos)
        << response;

    ASSERT_TRUE(collapsed->ApplyScoreUpdates(
                             {{3, 91.0}, {12, 70.0}, {7, 12.0}})
                    .ok());

    EXPECT_EQ(duplicated->scores(), collapsed->scores())
        << "repair_max_batch=" << repair_max_batch;
    EXPECT_EQ(duplicated->ranking(), collapsed->ranking())
        << "repair_max_batch=" << repair_max_batch;
  }
}

}  // namespace
}  // namespace fairtopk
