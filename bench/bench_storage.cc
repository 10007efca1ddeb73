// Restart-path benchmarks: the whole point of the snapshot format is
// that reopening a session from disk beats rebuilding it from CSV.
// BM_ColdStartCsv is the pre-persistence path (parse + bucketize +
// rank + index build); BM_SnapshotOpen reads the same session's
// table, scores and ranking from its snapshot and builds the index
// from them (no parse, bucketize or sort). ci.sh gates
// BM_SnapshotOpen at <= 0.2x BM_ColdStartCsv on the same 100k-row
// dataset, so the "instant restart" claim is continuously enforced.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/synthetic.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "service/audit_session.h"
#include "service/table_loader.h"

namespace fairtopk {
namespace {

constexpr size_t kRows = 100000;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// The 100k-row dataset both benchmarks restart from: four pattern
/// attributes and one effect-driven score, written to CSV once.
const std::string& FixtureCsv() {
  static const std::string path = [] {
    auto attrs = UniformAttributes("g", 4, 5);
    SyntheticScore score;
    score.noise_stddev = 1.0;
    score.effects.push_back({"g0", {0.0, 0.4, 0.8, 1.2, 1.6}});
    auto table = GenerateSynthetic(attrs, {score}, kRows, 777);
    if (!table.ok()) std::abort();
    std::string csv = TempPath("fairtopk_bench_coldstart.csv");
    if (!WriteCsvFile(*table, csv).ok()) std::abort();
    return csv;
  }();
  return path;
}

/// A snapshot of the session BM_ColdStartCsv builds, written once.
const std::string& FixtureSnapshot() {
  static const std::string path = [] {
    auto table = LoadAuditTable(FixtureCsv(), "score", /*bins=*/10, {});
    if (!table.ok()) std::abort();
    auto session =
        AuditSession::Create(std::move(table).value(), "score");
    if (!session.ok()) std::abort();
    std::string snapshot = TempPath("fairtopk_bench_coldstart.ftk");
    if (!session->SaveSnapshot(snapshot).ok()) std::abort();
    return snapshot;
  }();
  return path;
}

// CSV cold start: everything a process must redo without persistence —
// parse 100k records, infer types, bucketize, rank, build the index.
void BM_ColdStartCsv(benchmark::State& state) {
  const std::string& csv = FixtureCsv();
  for (auto _ : state) {
    auto table = LoadAuditTable(csv, "score", /*bins=*/10, {});
    if (!table.ok()) std::abort();
    auto session = AuditSession::Create(std::move(table).value(), "score");
    if (!session.ok()) std::abort();
    benchmark::DoNotOptimize(session);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}
BENCHMARK(BM_ColdStartCsv)->Unit(benchmark::kMillisecond);

// Snapshot open of the identical session. The single arg 0 keeps the
// name BM_SnapshotOpen/0 that ci.sh's gate reads.
void BM_SnapshotOpen(benchmark::State& state) {
  const std::string& snapshot = FixtureSnapshot();
  for (auto _ : state) {
    auto session = AuditSession::OpenFromSnapshot(snapshot);
    if (!session.ok()) std::abort();
    benchmark::DoNotOptimize(session);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}
BENCHMARK(BM_SnapshotOpen)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fairtopk

BENCHMARK_MAIN();
