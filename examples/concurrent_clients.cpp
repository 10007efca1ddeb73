// Concurrent clients over one shared AuditSession: the programmatic
// twin of `fairtopk_serve --workers`. Demonstrates the session's
// concurrency contract (see "Concurrency model" in README.md):
//
//  * reader threads issue detection queries concurrently under the
//    shared lock — identical in-flight queries coalesce onto one run;
//  * a writer thread applies score updates through the exclusive lock,
//    invalidating the result cache only when the permutation changes;
//  * a DetectMany batch runs its distinct members on the calling
//    thread, deduping repeats.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "service/audit_session.h"

using namespace fairtopk;

namespace {

api::AuditRequest GlobalQuery(int tau) {
  api::AuditRequest request;
  request.detector = "GlobalIterTD";
  request.config.k_min = 10;
  request.config.k_max = 49;
  request.config.size_threshold = tau;
  request.bounds = GlobalBoundSpec::PaperDefault(49);
  return request;
}

}  // namespace

int main() {
  // A five-attribute synthetic ranking with a disadvantaged g0=v0.
  std::vector<SyntheticAttribute> attributes = UniformAttributes("g", 5, 3);
  SyntheticScore score;
  score.noise_stddev = 1.0;
  score.effects.push_back({"g0", {0.0, 0.8, 1.6}});
  auto table = GenerateSynthetic(attributes, {score}, 5000, 7);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  auto session = AuditSession::Create(std::move(table).value(), "score");
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  std::printf("session over %zu rows, %zu pattern attributes\n",
              session->num_rows(), session->space().num_attributes());

  // Four clients hammer the session with overlapping queries while one
  // writer perturbs scores: readers share the state lock, the writer
  // excludes them while the ranking and index are patched. Duplicate
  // concurrent queries compute once (watch coalesced_hits below).
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&session, &failures, c] {
      for (int round = 0; round < 8; ++round) {
        // Clients deliberately overlap on tau so concurrent duplicates
        // exist; a round-robin offset keeps some queries distinct.
        auto response = session->Detect(GlobalQuery(100 + 50 * ((c + round) % 3)));
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  clients.emplace_back([&session, &failures] {
    Rng rng(99);
    for (int round = 0; round < 6; ++round) {
      std::vector<ScoreUpdate> updates;
      for (int i = 0; i < 20; ++i) {
        const uint32_t row =
            static_cast<uint32_t>(rng.UniformUint64(session->num_rows()));
        updates.push_back({row, 50.0 + rng.Gaussian() * 4.0});
      }
      if (!session->ApplyScoreUpdates(updates).ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (std::thread& client : clients) client.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%d operations failed\n", failures.load());
    return 1;
  }

  // A batch with repeats: distinct members run once each, repeats are
  // deduped in-batch.
  std::vector<api::AuditRequest> batch = {GlobalQuery(100), GlobalQuery(150),
                                          GlobalQuery(200), GlobalQuery(100),
                                          GlobalQuery(150)};
  auto responses = session->DetectMany(batch);
  if (!responses.ok()) {
    std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
    return 1;
  }
  size_t deduped = 0;
  for (const api::AuditResponse& response : *responses) {
    if (response.cached) ++deduped;
  }
  std::printf("batch of %zu served, %zu deduped in-batch\n", batch.size(),
              deduped);

  const SessionServiceStats stats = session->service_stats();
  std::printf(
      "detect_queries=%llu cache_hits=%llu coalesced_hits=%llu "
      "score_updates=%llu index_patches=%llu index_rebuilds=%llu\n",
      static_cast<unsigned long long>(stats.detect_queries),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.coalesced_hits),
      static_cast<unsigned long long>(stats.score_updates),
      static_cast<unsigned long long>(stats.index_patches),
      static_cast<unsigned long long>(stats.index_rebuilds));
  return 0;
}
