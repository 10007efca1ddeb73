// Shared helpers for the figure-regeneration benchmark harness: the
// three paper-shaped datasets with their rankers and pattern
// attributes, plus timing/printing utilities.
//
// Absolute numbers will not match the paper's (different hardware and
// a synthetic substrate); the series' *shape* — which algorithm wins,
// growth trends, crossovers — is the reproduced claim. See README.md,
// section "Benchmarks".
#ifndef FAIRTOPK_BENCH_BENCH_UTIL_H_
#define FAIRTOPK_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/compas_like.h"
#include "datagen/german_like.h"
#include "datagen/student_like.h"
#include "detect/detection_result.h"
#include "detect/engine/size_memo.h"
#include "ranking/ranker.h"
#include "relation/table.h"

namespace fairtopk::bench {

/// One evaluation dataset: table, ranker, and pattern attributes in the
/// order the paper's experiments add them.
struct Dataset {
  std::string name;
  Table table;
  std::unique_ptr<Ranker> ranker;
  std::vector<std::string> pattern_attributes;
};

inline Dataset MakeCompas() {
  auto table = CompasLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "compas generation failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return {"COMPAS", std::move(table).value(), CompasRanker(),
          CompasPatternAttributes()};
}

inline Dataset MakeStudent() {
  auto table = StudentLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "student generation failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return {"Student", std::move(table).value(), StudentRanker(),
          StudentPatternAttributes()};
}

inline Dataset MakeGerman() {
  auto table = GermanLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "german generation failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return {"German", std::move(table).value(), GermanRanker(),
          GermanPatternAttributes()};
}

inline std::vector<Dataset> AllDatasets() {
  std::vector<Dataset> out;
  out.push_back(MakeCompas());
  out.push_back(MakeStudent());
  out.push_back(MakeGerman());
  return out;
}

/// Prepares a DetectionInput over the first `num_attrs` pattern
/// attributes of `dataset` (all of them if num_attrs == 0 or exceeds
/// the available count).
inline DetectionInput PrepareInput(const Dataset& dataset,
                                   size_t num_attrs = 0) {
  std::vector<std::string> attrs = dataset.pattern_attributes;
  if (num_attrs > 0 && num_attrs < attrs.size()) {
    attrs.resize(num_attrs);
  }
  auto input = DetectionInput::Prepare(dataset.table, *dataset.ranker, attrs);
  if (!input.ok()) {
    std::fprintf(stderr, "input preparation failed: %s\n",
                 input.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(input).value();
}

/// Result of one timed algorithm run.
struct RunOutcome {
  double seconds = 0.0;
  uint64_t nodes_visited = 0;
  size_t max_result_size = 0;
  /// FNV-1a digest of the groups reported at every k: two runs over
  /// the same row answered alike iff their digests are equal (up to
  /// hash collisions).
  uint64_t groups_digest = 0;
};

/// The digest of RunOutcome::groups_digest.
inline uint64_t GroupsDigest(const DetectionResult& result) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    mix(k);
    for (const Pattern& p : result.AtK(k)) {
      for (const int16_t v : p.values()) mix(v);
    }
  }
  return h;
}

/// Exits 1, naming `row` on stderr, unless the optimized algorithm
/// reported the same groups at every k as the ITERTD baseline did on
/// the same row.
inline void RequireSameGroups(const RunOutcome& baseline,
                              const RunOutcome& optimized,
                              const std::string& row) {
  if (baseline.groups_digest == optimized.groups_digest) return;
  std::fprintf(stderr,
               "%s: the optimized algorithm's groups differ from IterTD's\n",
               row.c_str());
  std::exit(1);
}

/// Runs `fn(cold)` (returning Result<DetectionResult>) on `cold`, a
/// copy of `input` made before the clock starts, and extracts timing.
/// A copy starts with an empty size memo, so each timed algorithm
/// counts its own group sizes, as in the paper's setup, whatever ran
/// on `input` before. A run that overflowed the memo's budget, and so
/// timed recounts no other run pays, is flagged on stderr.
template <typename Fn>
RunOutcome TimedRun(const DetectionInput& input, const Fn& fn) {
  const DetectionInput cold = input;
  const uint64_t unstored = engine::SizeMemo::UnstoredMisses();
  WallTimer timer;
  auto result = fn(cold);
  RunOutcome outcome;
  outcome.seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "detection failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  if (engine::SizeMemo::UnstoredMisses() != unstored) {
    std::fprintf(stderr,
                 "note: this run overflowed the size memo's budget; its "
                 "time includes recounted sizes\n");
  }
  outcome.nodes_visited = result->stats().nodes_visited;
  outcome.max_result_size = result->MaxResultSize();
  outcome.groups_digest = GroupsDigest(*result);
  return outcome;
}

/// Prints a CSV header once.
inline void PrintHeader(const char* columns) { std::printf("%s\n", columns); }

}  // namespace fairtopk::bench

#endif  // FAIRTOPK_BENCH_BENCH_UTIL_H_
