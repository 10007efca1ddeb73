// Concurrency-contract tests for the thread-safe AuditSession
// (src/service/audit_session.h):
//
//  * deterministic in-flight coalescing — T concurrent identical
//    Detects compute ONCE, proven with a registered test detector that
//    blocks until every waiter has attached;
//  * a mixed-op stress storm — writer threads applying disjoint
//    (hence commuting) score updates and appends race reader threads
//    running detect/suggest/verify/invalidate; afterwards the session
//    must be bit-identical to a serial replay of the same per-thread
//    op logs on a fresh session (ranking, scores, and every detector's
//    results + work counters);
//  * detects racing on a cold shared size memo — every result equals a
//    fresh session's.
//
// The suites carry the `concurrency` CTest label, so ci.sh's TSan
// stage picks them up automatically.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/table.h"
#include "service/audit_session.h"

namespace fairtopk {
namespace {

// ---------------------------------------------------------------------------
// Fixture data

Table StressTable(size_t rows, uint64_t seed) {
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

api::AuditRequest Query(const std::string& detector, int k_max, int tau) {
  api::AuditRequest query;
  query.detector = detector;
  query.config.k_min = 5;
  query.config.k_max = k_max;
  query.config.size_threshold = tau;
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

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.k_min(), b.k_min()) << label;
  ASSERT_EQ(a.k_max(), b.k_max()) << label;
  for (int k = a.k_min(); k <= a.k_max(); ++k) {
    ASSERT_EQ(a.AtK(k), b.AtK(k)) << label << " k=" << k;
  }
  EXPECT_EQ(a.stats().nodes_visited, b.stats().nodes_visited) << label;
  EXPECT_EQ(a.stats().cursor_reuse_hits, b.stats().cursor_reuse_hits)
      << label;
}

// ---------------------------------------------------------------------------
// Deterministic coalescing: a registered detector that blocks until
// every expected waiter has attached to the in-flight run, so the test
// does not depend on scheduling to overlap the calls.

std::atomic<const AuditSession*> g_gate_session{nullptr};
std::atomic<uint64_t> g_gate_waiters{0};
std::atomic<int> g_gate_runs{0};

Result<DetectionResult> GateDetectorRun(const DetectionInput& input,
                                        const api::BoundsSpec&,
                                        const DetectionConfig& config) {
  g_gate_runs.fetch_add(1, std::memory_order_relaxed);
  const AuditSession* session = g_gate_session.load();
  if (session != nullptr) {
    // Waiters bump coalesced_hits BEFORE blocking on the in-flight
    // future, so this spin completes exactly when all of them attached.
    // Deadline-guarded: a coalescing regression then fails the count
    // assertions instead of hanging the suite.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (session->service_stats().coalesced_hits <
               g_gate_waiters.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  DetectionResult result(config.k_min, config.k_max);
  result.CountGroups(input);
  return result;
}

const api::DetectorDescriptor* RegisterGateDetector() {
  static const api::DetectorDescriptor* descriptor = [] {
    api::DetectorDescriptor d;
    d.name = "TestGateDetector";
    d.measure = "test";
    d.algo = "gate";
    d.bounds_kind = api::BoundsKind::kGlobal;
    d.summary = "test-only: blocks until all coalescing waiters attach";
    d.run = GateDetectorRun;
    EXPECT_TRUE(api::DetectorRegistry::Global().Register(d).ok());
    return api::DetectorRegistry::Global().Find("TestGateDetector");
  }();
  return descriptor;
}

TEST(ConcurrentSessionTest, IdenticalConcurrentDetectsComputeOnce) {
  ASSERT_NE(RegisterGateDetector(), nullptr);
  auto session = AuditSession::Create(StressTable(80, 11), "score");
  ASSERT_TRUE(session.ok());

  constexpr int kThreads = 4;
  g_gate_session.store(&session.value());
  g_gate_waiters.store(kThreads - 1);
  g_gate_runs.store(0);

  api::AuditRequest query = Query("TestGateDetector", 20, 4);
  std::vector<Result<api::AuditResponse>> responses;
  responses.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    responses.push_back(Status::Internal("not served"));
  }
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { responses[t] = session->Detect(query); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  g_gate_session.store(nullptr);

  EXPECT_EQ(g_gate_runs.load(), 1);
  const SessionServiceStats stats = session->service_stats();
  EXPECT_EQ(stats.detect_queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.coalesced_hits, static_cast<uint64_t>(kThreads - 1));
  int computed = 0;
  const DetectionResult* first = nullptr;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (!response->cached) ++computed;
    if (response->cached) {
      EXPECT_TRUE(response->coalesced);
    }
    // Coalesced waiters share the owner's materialized result object.
    if (first == nullptr) {
      first = response->result.get();
    } else {
      EXPECT_EQ(response->result.get(), first);
    }
  }
  EXPECT_EQ(computed, 1);
}

TEST(ConcurrentSessionTest, CoalescingAlsoAppliesWithCachingDisabled) {
  ASSERT_NE(RegisterGateDetector(), nullptr);
  SessionOptions options;
  options.cache_capacity = 0;
  auto session =
      AuditSession::Create(StressTable(80, 12), "score", false, options);
  ASSERT_TRUE(session.ok());

  constexpr int kThreads = 3;
  g_gate_session.store(&session.value());
  g_gate_waiters.store(kThreads - 1);
  g_gate_runs.store(0);

  api::AuditRequest query = Query("TestGateDetector", 20, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto response = session->Detect(query);
      EXPECT_TRUE(response.ok());
    });
  }
  for (std::thread& thread : threads) thread.join();
  g_gate_session.store(nullptr);

  EXPECT_EQ(g_gate_runs.load(), 1);
  EXPECT_EQ(session->cache_size(), 0u);
  // The run is gone once complete: a later detect computes again.
  g_gate_waiters.store(0);
  EXPECT_TRUE(session->Detect(query).ok());
  EXPECT_EQ(g_gate_runs.load(), 2);
}

// ---------------------------------------------------------------------------
// Stress storm: readers and writers race; the final state must be the
// serial replay of the recorded op logs.

struct WriterLog {
  std::vector<std::vector<ScoreUpdate>> update_batches;
  std::vector<std::vector<std::vector<Cell>>> append_batches;
};

std::vector<std::vector<Cell>> RandomRows(Rng& rng, size_t m) {
  std::vector<std::vector<Cell>> rows;
  for (size_t i = 0; i < m; ++i) {
    rows.push_back({Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
                    Cell::Code(static_cast<int16_t>(rng.UniformUint64(3))),
                    Cell::Code(static_cast<int16_t>(rng.UniformUint64(2))),
                    Cell::Value(50.0 + rng.Gaussian() * 8.0)});
  }
  return rows;
}

TEST(ConcurrentSessionTest, StressStormMatchesSerialReplayOfOpLog) {
  const size_t rows = 160;
  auto session = AuditSession::Create(StressTable(rows, 21), "score");
  ASSERT_TRUE(session.ok());

  // Writer op logs, pre-generated so the concurrent run and the serial
  // replay apply the SAME operations. Writer 1 updates rows [0, n/2)
  // with absolute scores, writer 2 updates rows [n/2, n) and appends
  // rows. Disjoint row sets and per-thread program order make every
  // interleaving commute to one final state — which is exactly what
  // the serial replay computes.
  WriterLog w1;
  WriterLog w2;
  {
    Rng rng(977);
    for (int b = 0; b < 12; ++b) {
      std::vector<ScoreUpdate> batch;
      for (int i = 0; i < 6; ++i) {
        batch.push_back({static_cast<uint32_t>(rng.UniformUint64(rows / 2)),
                         50.0 + rng.Gaussian() * 8.0});
      }
      w1.update_batches.push_back(std::move(batch));
    }
    for (int b = 0; b < 8; ++b) {
      std::vector<ScoreUpdate> batch;
      for (int i = 0; i < 6; ++i) {
        batch.push_back(
            {static_cast<uint32_t>(rows / 2 + rng.UniformUint64(rows / 2)),
             50.0 + rng.Gaussian() * 8.0});
      }
      w2.update_batches.push_back(std::move(batch));
    }
    for (int b = 0; b < 4; ++b) {
      w2.append_batches.push_back(RandomRows(rng, 3));
    }
  }

  const std::vector<api::AuditRequest> reader_queries = {
      Query("PropBounds", 40, 10), Query("GlobalIterTD", 40, 10),
      Query("GlobalBounds", 30, 12),
      Query("PropUpperBounds", 30, 12)};

  std::atomic<bool> failed{false};
  auto writer1 = [&] {
    for (const auto& batch : w1.update_batches) {
      if (!session->ApplyScoreUpdates(batch).ok()) failed.store(true);
      std::this_thread::yield();
    }
  };
  auto writer2 = [&] {
    size_t next_append = 0;
    for (size_t b = 0; b < w2.update_batches.size(); ++b) {
      if (!session->ApplyScoreUpdates(w2.update_batches[b]).ok()) {
        failed.store(true);
      }
      if (b % 2 == 1 && next_append < w2.append_batches.size()) {
        if (!session->AppendRows(w2.append_batches[next_append++]).ok()) {
          failed.store(true);
        }
      }
      std::this_thread::yield();
    }
  };
  auto reader = [&](int salt) {
    for (int round = 0; round < 12; ++round) {
      const api::AuditRequest& query =
          reader_queries[(round + salt) % reader_queries.size()];
      auto response = session->Detect(query);
      if (!response.ok()) failed.store(true);
      if (round % 3 == salt % 3) session->InvalidateCache();
      if (round % 4 == 0) {
        // A batch with an in-batch duplicate, racing the writers.
        auto batch = session->DetectMany({query, query});
        if (!batch.ok() || !(*batch)[1].cached) failed.store(true);
      }
      auto stats = session->service_stats();
      if (stats.detect_queries == 0) failed.store(true);
    }
  };

  {
    std::vector<std::thread> threads;
    threads.emplace_back(writer1);
    threads.emplace_back(writer2);
    threads.emplace_back(reader, 0);
    threads.emplace_back(reader, 1);
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_FALSE(failed.load());

  // Serial replay on a fresh session: writer 1's program, then
  // writer 2's (any serialization of commuting ops gives the same
  // state).
  auto replay = AuditSession::Create(StressTable(rows, 21), "score");
  ASSERT_TRUE(replay.ok());
  for (const auto& batch : w1.update_batches) {
    ASSERT_TRUE(replay->ApplyScoreUpdates(batch).ok());
  }
  {
    size_t next_append = 0;
    for (size_t b = 0; b < w2.update_batches.size(); ++b) {
      ASSERT_TRUE(replay->ApplyScoreUpdates(w2.update_batches[b]).ok());
      if (b % 2 == 1 && next_append < w2.append_batches.size()) {
        ASSERT_TRUE(
            replay->AppendRows(w2.append_batches[next_append++]).ok());
      }
    }
  }

  EXPECT_EQ(session->scores(), replay->scores());
  EXPECT_EQ(session->ranking(), replay->ranking());
  for (const api::AuditRequest& query : reader_queries) {
    auto stormed = session->Detect(query);
    auto replayed = replay->Detect(query);
    ASSERT_TRUE(stormed.ok());
    ASSERT_TRUE(replayed.ok());
    ExpectSameResult(*stormed->result, *replayed->result, query.detector);
  }
}

// ---------------------------------------------------------------------------
// A cold shared size memo: with the cache off, threads run distinct
// detects — all six detectors at several taus — that start together
// and race to fill the session input's one memo. Each result, counts
// included, must equal the same detect on a freshly built session.

TEST(ConcurrentSessionTest, DetectsRacingOnAColdMemoMatchFreshSessions) {
  SessionOptions options;
  options.cache_capacity = 0;
  auto session =
      AuditSession::Create(StressTable(200, 41), "score", false, options);
  ASSERT_TRUE(session.ok());

  std::vector<api::AuditRequest> queries;
  for (const char* detector :
       {"GlobalIterTD", "GlobalBounds", "PropIterTD", "PropBounds",
        "GlobalUpperBounds", "PropUpperBounds"}) {
    for (int tau : {3, 8, 14}) queries.push_back(Query(detector, 40, tau));
  }
  std::vector<std::shared_ptr<const DetectionResult>> results(queries.size());

  constexpr size_t kThreads = 4;
  std::atomic<size_t> ready{0};
  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (size_t q = t; q < queries.size(); q += kThreads) {
          auto response = session->Detect(queries[q]);
          if (!response.ok() || response->cached) {
            failed.store(true);
            continue;
          }
          results[q] = response->result;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_FALSE(failed.load());

  for (size_t q = 0; q < queries.size(); ++q) {
    auto fresh = AuditSession::Create(StressTable(200, 41), "score");
    ASSERT_TRUE(fresh.ok());
    auto reference = fresh->Detect(queries[q]);
    ASSERT_TRUE(reference.ok());
    const std::string label = queries[q].detector + " tau=" +
                              std::to_string(queries[q].config.size_threshold);
    ExpectSameResult(*results[q], *reference->result, label);
    for (int k = results[q]->k_min(); k <= results[q]->k_max(); ++k) {
      EXPECT_EQ(results[q]->CountsAtK(k), reference->result->CountsAtK(k))
          << label << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent readers only: many threads over one session must agree
// with a serial run (exercises shared-lock + cache + coalescing paths
// under TSan).

TEST(ConcurrentSessionTest, ConcurrentReadersMatchSerial) {
  auto session = AuditSession::Create(StressTable(120, 31), "score");
  ASSERT_TRUE(session.ok());
  auto serial = AuditSession::Create(StressTable(120, 31), "score");
  ASSERT_TRUE(serial.ok());

  const std::vector<api::AuditRequest> queries = {
      Query("PropBounds", 40, 10), Query("GlobalIterTD", 40, 10),
      Query("GlobalBounds", 40, 10), Query("PropIterTD", 30, 8),
      Query("GlobalUpperBounds", 30, 8), Query("PropUpperBounds", 30, 8)};

  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto response =
              session->Detect(queries[(q + static_cast<size_t>(t)) %
                                      queries.size()]);
          if (!response.ok()) failed.store(true);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_FALSE(failed.load());

  for (const api::AuditRequest& query : queries) {
    auto concurrent = session->Detect(query);
    auto reference = serial->Detect(query);
    ASSERT_TRUE(concurrent.ok());
    ASSERT_TRUE(reference.ok());
    ExpectSameResult(*concurrent->result, *reference->result,
                     query.detector);
  }
  // 4 threads x 6 queries + 6 verification detects.
  EXPECT_EQ(session->service_stats().detect_queries, 30u);
}

}  // namespace
}  // namespace fairtopk
