// Serving audits from a long-lived session: open one AuditSession over
// a synthetic dataset, serve typed api::AuditRequests (repeats are
// cache hits, a DetectMany batch dedupes identical queries, every
// result carries its groups' counts), absorb score updates and
// appended rows through the incremental ranking maintenance, and
// print the session's service counters — the programmatic twin of
// `tools/fairtopk_serve`.
#include <cstdio>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "service/audit_session.h"

using namespace fairtopk;

namespace {

api::AuditRequest PropRequest() {
  api::AuditRequest request;
  request.detector = "PropBounds";
  request.config.k_min = 10;
  request.config.k_max = 49;
  request.config.size_threshold = 100;
  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  request.bounds = bounds;
  return request;
}

/// Prints the groups reported at `k` with the counts stored in the
/// result: they come from the ranking the run searched, so reading
/// them takes no session lock even while updates land.
void PrintTopGroups(const AuditSession& session,
                    const DetectionResult& result, int k) {
  std::printf("  groups at k=%d:", k);
  const std::vector<Pattern>& groups = result.AtK(k);
  for (size_t g = 0; g < groups.size(); ++g) {
    std::printf(" %s (%zu of %zu in the top-%d)",
                groups[g].ToString(session.space()).c_str(),
                result.CountsAtK(k)[g].top_k, result.CountsAtK(k)[g].size,
                k);
  }
  std::printf("%s\n", groups.empty() ? " (none)" : "");
}

}  // namespace

int main() {
  // A COMPAS-shaped synthetic: five ternary demographic attributes and
  // a score column that disadvantages g0=v0.
  std::vector<SyntheticAttribute> attributes =
      UniformAttributes("g", 5, 3);
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

  // Query 1: runs the detector. Query 2 (same parameters) is served
  // from the cache.
  auto first = session->Detect(PropRequest());
  if (!first.ok()) {
    std::fprintf(stderr, "%s\n", first.status().ToString().c_str());
    return 1;
  }
  PrintTopGroups(*session, *first->result, 49);
  auto second = session->Detect(PropRequest());
  if (!second.ok()) {
    std::fprintf(stderr, "%s\n", second.status().ToString().c_str());
    return 1;
  }
  std::printf("  second query cache hit: %s (ran %s)\n",
              second->cached ? "yes" : "no", second->detector->name.c_str());

  // A batch: the baseline and the optimized detector, each requested
  // twice — DetectMany runs each distinct cache key once and serves
  // the duplicates from the first run.
  api::AuditRequest baseline = PropRequest();
  baseline.detector = "PropIterTD";
  auto batch = session->DetectMany(
      {PropRequest(), baseline, PropRequest(), baseline});
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  std::printf("  batch of 4 served (%zu deduplicated)\n",
              static_cast<size_t>((*batch)[2].cached) +
                  static_cast<size_t>((*batch)[3].cached));

  // A cached result is the same immutable object the first query
  // returned, counts included.
  auto repeat = session->Detect(PropRequest());
  if (!repeat.ok()) {
    std::fprintf(stderr, "%s\n", repeat.status().ToString().c_str());
    return 1;
  }
  size_t violations = 0;
  for (int k = repeat->result->k_min(); k <= repeat->result->k_max(); ++k) {
    violations += repeat->result->AtK(k).size();
  }
  std::printf("  repeat served %d ks, %zu violation reports (cached: %s)\n",
              repeat->result->k_max() - repeat->result->k_min() + 1,
              violations, repeat->cached ? "yes" : "no");

  // Maintenance: nudge 1% of the rows, then append a fresh batch. The
  // ranking and bitmap index are maintained incrementally (suffix
  // patches) instead of being rebuilt.
  Rng rng(99);
  std::vector<ScoreUpdate> updates;
  for (int i = 0; i < 50; ++i) {
    const uint32_t row =
        static_cast<uint32_t>(rng.UniformUint64(session->num_rows()));
    updates.push_back({row, session->scores()[row] + rng.Gaussian() * 0.01});
  }
  if (Status s = session->ApplyScoreUpdates(updates); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<std::vector<Cell>> fresh_rows;
  for (int i = 0; i < 25; ++i) {
    std::vector<Cell> row;
    for (int a = 0; a < 5; ++a) {
      row.push_back(
          Cell::Code(static_cast<int16_t>(rng.UniformUint64(3))));
    }
    row.push_back(Cell::Value(rng.Gaussian() * 1.5));
    fresh_rows.push_back(std::move(row));
  }
  if (Status s = session->AppendRows(fresh_rows); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  auto after = session->Detect(PropRequest());
  if (!after.ok()) {
    std::fprintf(stderr, "%s\n", after.status().ToString().c_str());
    return 1;
  }
  PrintTopGroups(*session, *after->result, 49);

  const SessionServiceStats& stats = session->service_stats();
  std::printf(
      "service stats: queries=%llu cache_hits=%llu updates=%llu "
      "appends=%llu index_patches=%llu index_rebuilds=%llu "
      "positions_patched=%llu\n",
      static_cast<unsigned long long>(stats.detect_queries),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.score_updates),
      static_cast<unsigned long long>(stats.appends),
      static_cast<unsigned long long>(stats.index_patches),
      static_cast<unsigned long long>(stats.index_rebuilds),
      static_cast<unsigned long long>(stats.positions_patched));
  return 0;
}
