// Shared helpers for the figure-regeneration benchmark harness: the
// three paper-shaped datasets with their rankers and pattern
// attributes, plus timing/printing utilities.
//
// Absolute numbers will not match the paper's (different hardware and
// a synthetic substrate); the series' *shape* — which algorithm wins,
// growth trends, crossovers — is the reproduced claim. See
// EXPERIMENTS.md.
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
  bool timed_out = false;
};

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
  return outcome;
}

/// Prints a CSV header once.
inline void PrintHeader(const char* columns) { std::printf("%s\n", columns); }

}  // namespace fairtopk::bench

#endif  // FAIRTOPK_BENCH_BENCH_UTIL_H_
