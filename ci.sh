#!/usr/bin/env sh
# CI entry point, split into named stages so the GitHub Actions matrix
# can run them as parallel jobs while one local invocation still covers
# everything:
#
#   headers   every src/**/*.h compiles standalone
#   tier1     configure + build + full ctest (the tier-1 verify), then
#             the full suite again with FAIRTOPK_KERNEL=scalar and the
#             kernel differential test once per SIMD variant
#   asan      ASan/UBSan over the unit, property and tool suites
#             (cli_test and the tool smoke tests), plus the kernel
#             differential test once per SIMD variant
#   tsan      ThreadSanitizer over every `concurrency`-labeled test
#             (ctest -L concurrency — suites opt in via the label in
#             tests/CMakeLists.txt, not by editing a regex here)
#   perf      perf smoke: pinned bench_micro subset vs the checked-in
#             baseline via tools/bench_compare.py, plus the intra-run
#             4-vs-1-worker serving throughput gate
#   perfbench the repository benchmark (perfbench/run.py), 2 s per
#             gated workload: builds the server from this checkout and
#             fails on any TCP answer that differs from the in-process
#             oracle
#
#   ./ci.sh                    # headers tier1 asan tsan
#   ./ci.sh tier1              # a single stage
#   ./ci.sh tier1 perf         # any subset, in the given order
#   SKIP_SANITIZE=1 ./ci.sh    # back-compat: headers tier1 only
#
# ccache is picked up automatically when installed (the Actions jobs
# cache its directory between runs).
set -eu

JOBS="$(nproc 2>/dev/null || echo 4)"
GENERATOR=""
if command -v ninja >/dev/null 2>&1; then
  GENERATOR="-GNinja"
fi
LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

PERF_BASELINE="${PERF_BASELINE:-BENCH_pr7.json}"
PERF_BENCHMARKS="BM_DetectGlobalIterTDSmall,BM_ResultSetUpdate,BM_SessionReuseDetect/0,BM_SessionReuseDetect/1,BM_ConcurrentDetectThroughput/1/real_time,BM_ConcurrentDetectThroughput/4/real_time,BM_AndCounts/1024,BM_MetricsOverhead/0,BM_MetricsOverhead/1"

# Bitset kernel variants the differential test is forced through (an
# unavailable variant falls back to the automatic choice with a stderr
# note, so the loop is harmless on any hardware).
KERNEL_VARIANTS="scalar avx2 avx512 neon"

run_kernel_matrix() {
  # $1 = build dir: the kernel differential suite once per variant.
  for kernel in ${KERNEL_VARIANTS}; do
    echo "-- bitset_kernel_test under FAIRTOPK_KERNEL=${kernel}"
    (cd "$1" && FAIRTOPK_KERNEL="${kernel}" \
      ctest --output-on-failure -R '^bitset_kernel_test$')
  done
}

stage_headers() {
  echo "== stage headers: header self-containment =="
  # Every public header must compile standalone (so api/, engine/, and
  # service headers stay includable in isolation — a new public type
  # cannot silently lean on a sibling's transitive includes).
  CXX_BIN="${CXX:-c++}"
  find src -name '*.h' | sort | xargs -P "${JOBS}" -I {} \
    "${CXX_BIN}" -std=c++20 -fsyntax-only -Isrc -x c++ {}
  echo "all src headers compile standalone"
}

stage_tier1() {
  echo "== stage tier1: configure + build + ctest =="
  rm -rf build-ci
  # shellcheck disable=SC2086
  cmake -B build-ci -S . ${GENERATOR} ${LAUNCHER}
  cmake --build build-ci -j "${JOBS}"
  (cd build-ci && ctest --output-on-failure -j "${JOBS}")
  # The whole suite again with the SIMD dispatch forced off: every
  # result the engine produces must be identical on scalar-only
  # hardware.
  echo "-- full ctest under FAIRTOPK_KERNEL=scalar"
  (cd build-ci && FAIRTOPK_KERNEL=scalar ctest --output-on-failure -j "${JOBS}")
  run_kernel_matrix build-ci
}

stage_asan() {
  echo "== stage asan: ASan/UBSan =="
  rm -rf build-ci-asan
  # Benches and examples are skipped (bench_nodes_visited and
  # smoke_quickstart go unregistered). The tools are built, so a plain
  # ctest runs every library test (unit + property + integration_test)
  # and every test that drives fairtopk_audit or fairtopk_serve —
  # cli_test and the smoke tests, including smoke_serve_persist's
  # restart from a snapshot — under the sanitizers.
  # shellcheck disable=SC2086
  cmake -B build-ci-asan -S . ${GENERATOR} ${LAUNCHER} \
    -DFAIRTOPK_SANITIZE=ON \
    -DFAIRTOPK_BUILD_BENCHES=OFF -DFAIRTOPK_BUILD_EXAMPLES=OFF
  cmake --build build-ci-asan -j "${JOBS}"
  (cd build-ci-asan && ctest --output-on-failure -j "${JOBS}")
  # Each SIMD kernel's loads/stores under ASan/UBSan, via the
  # differential suite.
  run_kernel_matrix build-ci-asan
}

stage_tsan() {
  echo "== stage tsan: ThreadSanitizer over concurrency-labeled tests =="
  rm -rf build-ci-tsan
  # Every suite that starts threads carries the `concurrency` CTest
  # label: the thread-safe session suites, the pooled JSONL front-end,
  # the socket server. New concurrent suites get TSan coverage by
  # adding themselves to FAIRTOPK_CONCURRENCY_TESTS in
  # tests/CMakeLists.txt.
  # shellcheck disable=SC2086
  cmake -B build-ci-tsan -S . ${GENERATOR} ${LAUNCHER} \
    -DFAIRTOPK_SANITIZE=thread \
    -DFAIRTOPK_BUILD_BENCHES=OFF -DFAIRTOPK_BUILD_EXAMPLES=OFF \
    -DFAIRTOPK_BUILD_TOOLS=OFF
  cmake --build build-ci-tsan -j "${JOBS}"
  (cd build-ci-tsan && ctest --output-on-failure -j "${JOBS}" -L concurrency)
  # The suites that search from several threads at once, once per
  # kernel variant: concurrent detects racing through a shared kernel
  # table must stay clean on every tier.
  for kernel in ${KERNEL_VARIANTS}; do
    echo "-- concurrency suites under FAIRTOPK_KERNEL=${kernel}"
    (cd build-ci-tsan && FAIRTOPK_KERNEL="${kernel}" \
      ctest --output-on-failure -j "${JOBS}" -L concurrency -R '^concurrent_session_test$|^stored_counts_test$')
  done
}

stage_perf() {
  echo "== stage perf: bench smoke vs ${PERF_BASELINE} =="
  # Reuses the tier1 tree when present so the perf job can piggyback on
  # a cached build.
  if [ ! -d build-ci ]; then
    # shellcheck disable=SC2086
    cmake -B build-ci -S . ${GENERATOR} ${LAUNCHER}
  fi
  cmake --build build-ci -j "${JOBS}" --target bench_micro
  ./build-ci/bench/bench_micro \
    --benchmark_filter='BM_DetectGlobalIterTDSmall|BM_ResultSetUpdate|BM_SessionReuseDetect|BM_ConcurrentDetectThroughput|BM_AndCounts|BM_MetricsOverhead|BM_DetectionResultToJson|BM_DetectHitResponse' \
    --benchmark_out=build-ci/bench_current.json \
    --benchmark_out_format=json
  # BM_DetectionResultToJson and BM_DetectHitResponse (the report
  # layer) are recorded in bench_current.json but not gated:
  # ${PERF_BASELINE} has no entry for them.
  # The SIMD-vs-scalar gate only binds when the run actually dispatched
  # a vector kernel (the JSON context records which), so a scalar-only
  # runner skips it instead of failing. The 4-vs-1-worker coalescing
  # gate sits at 1.5x (not the ideal ~2x): the SIMD kernels shortened
  # each compute, so on a single-core runner fewer duplicate requests
  # overlap an in-flight run, and the measured ratio hovers near 2x
  # with real run-to-run dips.
  # Each comparison runs whatever the other found: a failing gate is
  # recorded and named at the end of the stage, so one red gate cannot
  # hide the verdict of the next.
  failed_gates=""
  if ! python3 tools/bench_compare.py "${PERF_BASELINE}" \
    build-ci/bench_current.json \
    --max-ratio 3.0 \
    --benchmarks "${PERF_BENCHMARKS}" \
    --min-speedup 'BM_ConcurrentDetectThroughput/1/real_time,BM_ConcurrentDetectThroughput/4/real_time,1.5' \
    --min-speedup-when-kernel 'avx2|avx512|neon,BM_AndCountsScalar/1024,BM_AndCounts/1024,2.0' \
    --max-ratio-pair 'BM_SessionReuseDetect/0,BM_MetricsOverhead/0,1.02' \
    --max-ratio-vs 'BM_SessionReuseDetect/0,BM_MetricsOverhead/0,1.10'; then
    failed_gates="${failed_gates}
  bench_micro gates (regression, speedup and metrics-overhead caps; each failing one is listed above)"
  fi
  # Metrics-overhead gates, two forms: the --max-ratio-pair is
  # machine-independent (BM_MetricsOverhead/0 is BM_SessionReuseDetect/0
  # plus the disabled instrumentation sites, measured in the same run,
  # so the ratio IS the overhead and the 2% cap is tight); the
  # --max-ratio-vs compares against the pre-instrumentation baseline
  # recording and must absorb machine drift, hence the looser 10%.

  # Restart-path gate: opening a 100k-row session from its snapshot
  # must cost at most 0.2x of rebuilding it from CSV (the paper-facing
  # "instant restart" claim; in practice the ratio is far smaller, the
  # 0.2x cap just keeps headroom for slow CI disks). Intra-run pair on
  # the same machine and dataset, so no baseline recording is needed.
  cmake --build build-ci -j "${JOBS}" --target bench_storage
  ./build-ci/bench/bench_storage \
    --benchmark_filter='BM_ColdStartCsv|BM_SnapshotOpen' \
    --benchmark_out=build-ci/bench_storage.json \
    --benchmark_out_format=json
  if ! python3 tools/bench_compare.py "${PERF_BASELINE}" \
    build-ci/bench_storage.json \
    --benchmarks 'BM_ColdStartCsv,BM_SnapshotOpen/0' \
    --max-ratio-pair 'BM_ColdStartCsv,BM_SnapshotOpen/0,0.2'; then
    failed_gates="${failed_gates}
  restart-path gate (BM_SnapshotOpen/0 <= 0.2x BM_ColdStartCsv)"
  fi
  if [ -n "${failed_gates}" ]; then
    echo "perf smoke FAILED:${failed_gates}" >&2
    exit 1
  fi
  echo "perf smoke green (json: build-ci/bench_current.json)"
}

stage_perfbench() {
  echo "== stage perfbench: repository benchmark, correctness run =="
  # Short runs of the two workloads BENCHMARK.json gates. Each builds
  # the library and fairtopk_serve from this checkout (under
  # .bench_build/) and checks every TCP answer against the in-process
  # oracle; run.py exits non-zero on a wrong answer, an error response
  # or a timeout. Timings from 2 s runs are not gated here.
  for workload in hot_dashboard cold_audit; do
    echo "-- perfbench ${workload}"
    python3 perfbench/run.py --workload "${workload}" --seed 1 \
      --seconds 2 --trace 0
  done
}

STAGES="${*:-}"
if [ -z "${STAGES}" ]; then
  if [ "${SKIP_SANITIZE:-0}" = "1" ]; then
    STAGES="headers tier1"
  else
    STAGES="headers tier1 asan tsan"
  fi
fi

for stage in ${STAGES}; do
  case "${stage}" in
    headers) stage_headers ;;
    tier1) stage_tier1 ;;
    asan) stage_asan ;;
    tsan) stage_tsan ;;
    perf) stage_perf ;;
    perfbench) stage_perfbench ;;
    *)
      echo "unknown stage '${stage}' (headers tier1 asan tsan perf perfbench)" >&2
      exit 2
      ;;
  esac
done

echo "== ci.sh: all requested stages green =="
