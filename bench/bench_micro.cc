// Microbenchmarks (google-benchmark) for the hot primitives underneath
// the detection algorithms — bitmap-index counting, search-tree child
// generation, result-set maintenance, ranking — plus the session
// serving layer (result-cache reuse and incremental index
// maintenance).
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "common/metrics/metrics.h"
#include "common/metrics/trace.h"
#include "common/rng.h"
#include "datagen/compas_like.h"
#include "index/kernels/kernels.h"
#include "datagen/synthetic.h"
#include "detect/detection_result.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "index/bitmap_index.h"
#include "index/pattern_cursor.h"
#include "pattern/result_set.h"
#include "pattern/search_tree.h"
#include "ranking/score_ranker.h"
#include "report/json_report.h"
#include "service/audit_session.h"
#include "service/jsonl_service.h"

namespace fairtopk {
namespace {

const Table& CompasTable() {
  static const Table table = [] {
    auto t = CompasLikeTable();
    if (!t.ok()) std::abort();
    return std::move(t).value();
  }();
  return table;
}

const DetectionInput& CompasInput() {
  static const DetectionInput input = [] {
    auto ranker = CompasRanker();
    auto in = DetectionInput::Prepare(CompasTable(), *ranker,
                                      CompasPatternAttributes());
    if (!in.ok()) std::abort();
    return std::move(in).value();
  }();
  return input;
}

void BM_BitmapIndexBuild(benchmark::State& state) {
  auto ranker = CompasRanker();
  auto ranking = ranker->Rank(CompasTable());
  auto space = PatternSpace::Create(CompasTable().schema(),
                                    CompasPatternAttributes());
  for (auto _ : state) {
    auto index = BitmapIndex::Build(CompasTable(), *space, *ranking);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_BitmapIndexBuild);

void BM_PatternCount(benchmark::State& state) {
  const DetectionInput& input = CompasInput();
  const size_t predicates = static_cast<size_t>(state.range(0));
  Pattern p = Pattern::Empty(input.space().num_attributes());
  for (size_t a = 0; a < predicates; ++a) p = p.With(a, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(input.index().PatternCount(p));
  }
}
BENCHMARK(BM_PatternCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_TopKCount(benchmark::State& state) {
  const DetectionInput& input = CompasInput();
  Pattern p = Pattern::Empty(input.space().num_attributes())
                  .With(0, 0)
                  .With(2, 0);
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(input.index().TopKCount(p, k));
  }
}
BENCHMARK(BM_TopKCount)->Arg(50)->Arg(500)->Arg(5000);

void BM_GenerateChildren(benchmark::State& state) {
  const DetectionInput& input = CompasInput();
  Pattern p = Pattern::Empty(input.space().num_attributes()).With(1, 0);
  std::vector<Pattern> out;
  for (auto _ : state) {
    out.clear();
    AppendChildren(p, input.space(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GenerateChildren);

void BM_ResultSetUpdate(benchmark::State& state) {
  Rng rng(7);
  std::vector<Pattern> pool;
  for (int i = 0; i < 64; ++i) {
    Pattern p = Pattern::Empty(8);
    for (size_t a = 0; a < 8; ++a) {
      if (rng.Bernoulli(0.3)) {
        p = p.With(a, static_cast<int16_t>(rng.UniformUint64(3)));
      }
    }
    if (!p.IsEmpty()) pool.push_back(p);
  }
  for (auto _ : state) {
    MostGeneralResultSet res;
    for (const Pattern& p : pool) {
      benchmark::DoNotOptimize(res.Update(p));
    }
  }
}
BENCHMARK(BM_ResultSetUpdate);

void BM_ScoreRanker(benchmark::State& state) {
  auto ranker = CompasRanker();
  for (auto _ : state) {
    auto ranking = ranker->Rank(CompasTable());
    benchmark::DoNotOptimize(ranking);
  }
}
BENCHMARK(BM_ScoreRanker);

// Raw kernel sweep, sized in 64-bit WORDS (arg): the fused
// AND+dual-popcount (and_counts), with the prefix cut at half the bits
// so both the full-word and masked-word paths stay hot. The
// BM_AndCountsScalar twin forces the scalar reference table, so
// dispatched-vs-scalar is measurable in one run; the dispatched variant
// follows FAIRTOPK_KERNEL, and the JSON context's "fairtopk_kernel"
// field records which table it used.
struct KernelBenchInput {
  std::vector<uint64_t> a, b;
  size_t k_full = 0;
  uint64_t k_mask = 0;

  explicit KernelBenchInput(size_t words) : a(words), b(words) {
    Rng rng(words);
    for (size_t i = 0; i < words; ++i) {
      a[i] = rng.NextUint64();
      b[i] = rng.NextUint64();
    }
    kernels::SplitPrefix(words * 32 + 7, &k_full, &k_mask);
  }
};

void RunAndCounts(benchmark::State& state) {
  KernelBenchInput in(static_cast<size_t>(state.range(0)));
  const kernels::KernelOps& ops = kernels::Active();
  size_t total = 0, prefix = 0;
  for (auto _ : state) {
    ops.and_counts(in.a.data(), in.b.data(), in.a.size(), in.k_full, in.k_mask,
                   &total, &prefix);
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(prefix);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(in.a.size()) * 16);
}

void BM_AndCounts(benchmark::State& state) { RunAndCounts(state); }
BENCHMARK(BM_AndCounts)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AndCountsScalar(benchmark::State& state) {
  kernels::ScopedKernel scalar("scalar");
  RunAndCounts(state);
}
BENCHMARK(BM_AndCountsScalar)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

// The cursor's two per-node counts at depth N (arg), with k = 500. A
// size the run has not counted yet costs one full-width AND of the
// parent's frame with one value bitset (ChildCounts); every other
// evaluation reads only the ceil(k/64) prefix words (ChildTopK).
// Contrast with BM_PatternCount / BM_TopKCount, which intersect all
// predicates from scratch.
void BM_PatternCursorChildCounts(benchmark::State& state) {
  const DetectionInput& input = CompasInput();
  const size_t depth = static_cast<size_t>(state.range(0));
  PatternCursor cursor(input.index(), 500);
  for (size_t a = 0; a < depth; ++a) cursor.Push(a, 0);
  size_t size_d = 0;
  size_t top_k = 0;
  for (auto _ : state) {
    cursor.ChildCounts(depth, 0, &size_d, &top_k);
    benchmark::DoNotOptimize(size_d);
    benchmark::DoNotOptimize(top_k);
  }
}
BENCHMARK(BM_PatternCursorChildCounts)->Arg(1)->Arg(3)->Arg(7);

void BM_PatternCursorChildTopK(benchmark::State& state) {
  const DetectionInput& input = CompasInput();
  const size_t depth = static_cast<size_t>(state.range(0));
  PatternCursor cursor(input.index(), 500);
  for (size_t a = 0; a < depth; ++a) cursor.Push(a, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cursor.ChildTopK(depth, 0));
  }
}
BENCHMARK(BM_PatternCursorChildTopK)->Arg(1)->Arg(3)->Arg(7);

const DetectionInput& SmallDetectionInput() {
  static const DetectionInput input = [] {
    auto ranker = CompasRanker();
    std::vector<std::string> all = CompasPatternAttributes();
    std::vector<std::string> attrs(all.begin(), all.begin() + 6);
    auto in = DetectionInput::Prepare(CompasTable(), *ranker, attrs);
    if (!in.ok()) std::abort();
    return std::move(in).value();
  }();
  return input;
}

void BM_DetectGlobalIterTDSmall(benchmark::State& state) {
  const DetectionInput& input = SmallDetectionInput();
  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(49);
  DetectionConfig config{10, 49, 50};
  for (auto _ : state) {
    auto result = DetectGlobalIterTD(input, bounds, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DetectGlobalIterTDSmall);

void BM_DetectGlobalBoundsSmall(benchmark::State& state) {
  const DetectionInput& input = SmallDetectionInput();
  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(49);
  DetectionConfig config{10, 49, 50};
  for (auto _ : state) {
    auto result = DetectGlobalBounds(input, bounds, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DetectGlobalBoundsSmall);

// The "synthetic medium" serving dataset: 20k rows, 10 ternary pattern
// attributes (a ~59k-pattern space, the scale of the paper's
// attribute-count sweeps), score correlated with g0 so biased groups
// exist.
const Table& MediumServingTable() {
  static const Table table = [] {
    std::vector<SyntheticAttribute> attrs = UniformAttributes("g", 10, 3);
    SyntheticScore score;
    score.noise_stddev = 1.0;
    score.effects.push_back({"g0", {0.0, 0.6, 1.2}});
    auto t = GenerateSynthetic(attrs, {score}, 20000, 12345);
    if (!t.ok()) std::abort();
    return std::move(t).value();
  }();
  return table;
}

AuditSession MediumSession(double rebuild_threshold) {
  SessionOptions options;
  options.rebuild_threshold = rebuild_threshold;
  auto session = AuditSession::Create(MediumServingTable(), "score",
                                      /*ascending=*/false, options);
  if (!session.ok()) std::abort();
  return std::move(session).value();
}

// Serving the same detection query through a long-lived session:
// arg 0 re-runs the detector every iteration (the cache is cleared),
// arg 1 is the steady-state cache hit — the amortization a session
// buys over one-shot audits.
void BM_SessionReuseDetect(benchmark::State& state) {
  static AuditSession* session =
      new AuditSession(MediumSession(/*rebuild_threshold=*/0.5));
  api::AuditRequest query;
  query.detector = "GlobalBounds";
  query.config = DetectionConfig{10, 49, 1000};
  query.bounds = GlobalBoundSpec::PaperDefault(49);
  const bool warm = state.range(0) == 1;
  // The session is shared across args and repetitions; zero the
  // service counters so each run's stats reflect itself only.
  session->ResetStats();
  for (auto _ : state) {
    if (!warm) session->InvalidateCache();
    auto result = session->Detect(query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SessionReuseDetect)->Arg(0)->Arg(1);

// Instrumentation overhead on the BM_SessionReuseDetect/0 workload
// (cold-cache detect, the instrumented hot path): arg 0 runs with the
// metrics kill switch OFF — the per-site cost is one relaxed load and
// branch, gated in CI to stay within noise of the uninstrumented
// baseline — and arg 1 runs fully instrumented with a RequestTrace
// attached (metrics on + span/counter reporting), the everything-on
// worst case.
void BM_MetricsOverhead(benchmark::State& state) {
  static AuditSession* session =
      new AuditSession(MediumSession(/*rebuild_threshold=*/0.5));
  api::AuditRequest query;
  query.detector = "GlobalBounds";
  query.config = DetectionConfig{10, 49, 1000};
  query.bounds = GlobalBoundSpec::PaperDefault(49);
  const bool instrumented = state.range(0) == 1;
  metrics::SetEnabled(instrumented);
  session->ResetStats();
  for (auto _ : state) {
    // One trace per request, as the serving layer allocates them.
    metrics::RequestTrace trace;
    query.trace = instrumented ? &trace : nullptr;
    session->InvalidateCache();
    auto result = session->Detect(query);
    benchmark::DoNotOptimize(result);
  }
  metrics::SetEnabled(true);
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

// Batched serving vs N sequential Detect() calls on the 20k-row
// synthetic, with the result cache DISABLED (the streaming/serving
// configuration): the batch holds 4 distinct queries, each requested
// twice. DetectMany dedupes identical cache keys within the batch and
// runs each detector once (arg 1); the sequential loop runs all 8
// (arg 0) — the expected gap is the dedup factor, ~2x.
void BM_DetectManyBatched(benchmark::State& state) {
  SessionOptions options;
  options.cache_capacity = 0;
  auto session = AuditSession::Create(MediumServingTable(), "score",
                                      /*ascending=*/false, options);
  if (!session.ok()) std::abort();
  std::vector<api::AuditRequest> batch;
  for (int tau : {1000, 1200, 1400, 1600}) {
    api::AuditRequest query;
    query.detector = "GlobalBounds";
    query.config = DetectionConfig{10, 49, tau};
    query.bounds = GlobalBoundSpec::PaperDefault(49);
    batch.push_back(query);
  }
  // Each distinct query twice.
  const std::vector<api::AuditRequest> distinct = batch;
  batch.insert(batch.end(), distinct.begin(), distinct.end());
  const bool batched = state.range(0) == 1;
  for (auto _ : state) {
    if (batched) {
      auto responses = session->DetectMany(batch);
      if (!responses.ok()) std::abort();
      benchmark::DoNotOptimize(responses);
    } else {
      for (const api::AuditRequest& query : batch) {
        auto response = session->Detect(query);
        if (!response.ok()) std::abort();
        benchmark::DoNotOptimize(response);
      }
    }
  }
}
BENCHMARK(BM_DetectManyBatched)->Arg(0)->Arg(1);

// Incremental ranking maintenance vs from-scratch session rebuild for
// a 1%-of-rows score update on the medium dataset: arg 0 patches the
// affected rank positions in place (rebuild_threshold = 1), arg 1
// forces the from-scratch index rebuild (threshold = 0). Both paths
// share the merge-based re-rank, so the ratio isolates the index
// maintenance.
void BM_IncrementalUpdateVsRebuild(benchmark::State& state) {
  AuditSession session =
      MediumSession(state.range(0) == 0 ? 1.0 : 0.0);
  const size_t n = session.num_rows();
  // Pre-generated batches of small perturbations to 1% of the rows
  // (absolute scores, so iterations do not drift), cycled so
  // consecutive iterations never apply identical updates.
  Rng rng(777);
  std::vector<std::vector<ScoreUpdate>> batches;
  for (int b = 0; b < 8; ++b) {
    std::vector<ScoreUpdate> batch;
    for (size_t i = 0; i < n / 100; ++i) {
      const uint32_t row =
          static_cast<uint32_t>(rng.UniformUint64(n));
      batch.push_back(
          {row, session.scores()[row] + rng.Gaussian() * 0.001});
    }
    batches.push_back(std::move(batch));
  }
  size_t next = 0;
  for (auto _ : state) {
    Status status = session.ApplyScoreUpdates(batches[next]);
    if (!status.ok()) std::abort();
    next = (next + 1) % batches.size();
  }
}
BENCHMARK(BM_IncrementalUpdateVsRebuild)->Arg(0)->Arg(1);

// Concurrent serving throughput over one shared session (arg =
// front-end workers): the workers drain a fixed stream of 32 detection
// requests — 8 distinct GlobalIterTD parameterizations, each appearing
// 4 times in adjacent runs, the duplicate-heavy shape of many users
// auditing the same ranking — with the result cache DISABLED, the pure
// serving configuration where a serial front-end recomputes every
// request. Counter: items/s = requests served per second. The scaling
// has two independent sources: concurrent distinct computes (needs
// cores) and in-flight coalescing of concurrent duplicates (pays off
// at ANY core count — adjacent duplicates attach to the in-flight run
// instead of recomputing, so 4 workers execute ~8 runs where 1 worker
// executes 32). Queries are sized at a few ms each (the baseline
// per-k detector over 190 ks) so a compute spans scheduler timeslices
// — on a single core, duplicates can only attach to a run that is
// still in flight when they get on-CPU.
void BM_ConcurrentDetectThroughput(benchmark::State& state) {
  static AuditSession* session = [] {
    SessionOptions options;
    options.cache_capacity = 0;
    auto s = AuditSession::Create(MediumServingTable(), "score",
                                  /*ascending=*/false, options);
    if (!s.ok()) std::abort();
    return new AuditSession(std::move(s).value());
  }();
  std::vector<api::AuditRequest> requests;
  for (int tau = 800; tau < 1600; tau += 200) {
    api::AuditRequest query;
    query.detector = "GlobalIterTD";
    query.config = DetectionConfig{10, 199, tau};
    query.bounds = GlobalBoundSpec::PaperDefault(199);
    for (int copy = 0; copy < 8; ++copy) requests.push_back(query);
  }
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < requests.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        auto response = session->Detect(requests[i]);
        if (!response.ok()) std::abort();
        benchmark::DoNotOptimize(response);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) pool.emplace_back(drain);
    drain();
    for (std::thread& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests.size()));
}
BENCHMARK(BM_ConcurrentDetectThroughput)->Arg(1)->Arg(4)->UseRealTime();

// The table of the repository benchmark's workloads
// (perfbench/src/workload.cc): 10^5 rows over the same 8 categorical
// attributes, 35 values in all, with a score that depends on four of
// them.
const Table& WorkloadTable() {
  static const Table table = [] {
    const std::vector<SyntheticAttribute> attributes = {
        {"sex", 2, {0.5, 0.5}, {"F", "M"}},
        {"race", 5, {0.4, 0.3, 0.15, 0.1, 0.05}},
        {"age", 4, {}, {"18-25", "26-40", "41-60", "60+"}},
        {"region", 6},
        {"edu", 4, {0.2, 0.4, 0.3, 0.1}},
        {"job", 8},
        {"marital", 3, {0.5, 0.3, 0.2}},
        {"lang", 3, {0.6, 0.3, 0.1}},
    };
    SyntheticScore score;
    score.name = "score";
    score.noise_stddev = 1.0;
    score.effects = {{"sex", {0.0, 0.3}},
                     {"race", {0.4, 0.2, 0.0, -0.3, -0.5}},
                     {"age", {-0.2, 0.2, 0.1, -0.4}},
                     {"edu", {-0.5, 0.0, 0.3, 0.6}}};
    auto t = GenerateSynthetic(attributes, {score}, 100000, 20230403);
    if (!t.ok()) std::abort();
    return std::move(t).value();
  }();
  return table;
}

AuditSession& WorkloadSession() {
  static AuditSession* session = [] {
    auto created = AuditSession::Create(WorkloadTable(), "score");
    if (!created.ok()) std::abort();
    return new AuditSession(std::move(created).value());
  }();
  return *session;
}

// The report layer alone: rendering a result shaped like a cold_audit
// answer (PropBounds, k 5..34, tau 2000, alpha 0.8: about 1,700 group
// entries over the 8 attributes, about 115 KB).
void BM_DetectionResultToJson(benchmark::State& state) {
  api::AuditRequest query;
  query.detector = "PropBounds";
  query.config = DetectionConfig{5, 34, 2000};
  query.bounds = PropBoundSpec{0.8};
  auto response = WorkloadSession().Detect(query);
  if (!response.ok()) std::abort();
  const DetectionResult& result = *response->result;
  const ReportContext context{"perfbench", "proportional", "PropBounds"};
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string json =
        DetectionResultToJson(result, WorkloadSession().space(), context);
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  size_t groups = 0;
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    groups += result.AtK(k).size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["report_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DetectionResultToJson);

// A hot_dashboard answer end to end through the protocol layer:
// JsonlService::HandleLine on a detect the session has cached
// (GlobalBounds, k 20..59, tau 5000, lower 0.6; a report of about
// 80 KB), i.e. parse, cache lookup and the response's one copy of the
// shared report.
void BM_DetectHitResponse(benchmark::State& state) {
  ServeDefaults defaults;
  defaults.dataset = "perfbench";
  JsonlService service(&WorkloadSession(), defaults);
  const std::string line =
      R"({"op":"detect","id":1,"detector":"GlobalBounds","k_min":20,)"
      R"("k_max":59,"tau":5000,"lower":0.6})";
  size_t bytes = service.HandleLine(line).size();  // fills the cache
  for (auto _ : state) {
    const std::string response = service.HandleLine(line);
    bytes = response.size();
    benchmark::DoNotOptimize(response.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["response_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DetectHitResponse);

}  // namespace
}  // namespace fairtopk

// Custom main (instead of benchmark_main) so every JSON report carries
// the kernel table the dispatched benchmarks ran on — bench_compare's
// kernel-conditional gates key off this context field.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fairtopk_kernel", fairtopk::kernels::ActiveName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
