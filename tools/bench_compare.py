#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and gate on regressions.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--max-ratio X]
                   [--benchmarks name1,name2,...]
                   [--min-speedup SLOW_NAME,FAST_NAME,X]...
                   [--min-speedup-when-kernel KERNELS,SLOW,FAST,X]...
                   [--max-ratio-pair A,B,X]...
                   [--max-ratio-vs BASELINE_NAME,CURRENT_NAME,X]...

Checks, in order:
  * Regression gate: for every benchmark present in BOTH files (or only
    the --benchmarks subset when given), current real_time must be at
    most --max-ratio times the baseline real_time (default 3.0 — wide
    enough to absorb machine-to-machine variance in CI while still
    catching order-of-magnitude regressions). Benchmarks missing from
    the baseline are reported and skipped, so adding a benchmark does
    not require regenerating old baselines.
  * Intra-run speedups: every --min-speedup SLOW,FAST,X asserts
    real_time(SLOW) / real_time(FAST) >= X inside CURRENT alone. This
    is machine-independent (both numbers come from the same run), so it
    can gate properties like "4 serving workers are at least 2x the
    throughput of 1" on any CI hardware.
  * Kernel-conditional speedups: --min-speedup-when-kernel KERNELS,SLOW,
    FAST,X is the same intra-run assertion, but applied only when
    CURRENT's context reports a "fairtopk_kernel" in the |-separated
    KERNELS list (bench_micro's custom main stamps the selected bitset
    kernel there). This lets the SIMD-vs-scalar gate run hard on AVX2/
    AVX-512 machines while a scalar-only CI runner skips it instead of
    failing.
  * Intra-run ratio caps: --max-ratio-pair A,B,X asserts
    real_time(B) <= X * real_time(A) inside CURRENT alone — the
    machine-independent form of a tight overhead bound (e.g. "the
    metrics-enabled path costs at most 2% over the disabled path").
  * Cross-name baseline caps: --max-ratio-vs BASELINE_NAME,
    CURRENT_NAME,X asserts real_time(CURRENT_NAME in CURRENT) <=
    X * real_time(BASELINE_NAME in BASELINE) — for gating a NEW
    benchmark against a DIFFERENT benchmark recorded in an old
    baseline (e.g. the instrumentation-disabled detect path against
    the pre-instrumentation detect bench). Skipped with a notice when
    BASELINE_NAME is absent from the baseline file. Machine-sensitive
    like --max-ratio; pick X accordingly.

Times are compared in nanoseconds: each entry's real_time is converted
by its own time_unit (google-benchmark writes ns, us, ms or s), so a
millisecond benchmark compares correctly against a nanosecond one, and
each is printed in the unit it was recorded in.

Under --benchmark_repetitions=N a file holds N entries per benchmark
name; every gate judges the median of a name's repetitions, and each
ratio is printed with the repetition count (n) and coefficient of
variation (cv, sample standard deviation over mean) of both sides. With
one repetition the median is that repetition and its cv is 0.

Exit code 0 when every gate passes, 1 otherwise.
"""

import argparse
import json
import statistics
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class Time(float):
    """The median real_time in nanoseconds of one benchmark's
    repetitions; prints in its recorded unit and keeps the repetition
    count and coefficient of variation."""

    def __new__(cls, samples_ns, unit):
        time = super().__new__(cls, statistics.median(samples_ns))
        time.unit = unit
        time.reps = len(samples_ns)
        mean = statistics.fmean(samples_ns)
        time.cv = (statistics.stdev(samples_ns) / mean
                   if len(samples_ns) > 1 and mean > 0 else 0.0)
        return time

    def __str__(self):
        value = self / NS_PER_UNIT[self.unit]
        digits = 0 if self.unit == "ns" else 2
        return f"{value:.{digits}f}{self.unit}"

    def spread(self):
        return f"n={self.reps} cv={self.cv:.1%}"


def load_report(path):
    """Returns ({benchmark name: Time}, context dict)."""
    with open(path) as f:
        doc = json.load(f)
    samples = {}
    units = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        samples.setdefault(bench["name"], []).append(
            float(bench["real_time"]) * NS_PER_UNIT[unit])
        units[bench["name"]] = unit
    times = {name: Time(ns, units[name]) for name, ns in samples.items()}
    return times, doc.get("context", {})


def spreads(first, second):
    """The n and cv of a ratio's two sides, printed beside it."""
    return f"[{first.spread()} | {second.spread()}]"


def check_min_speedup(current, slow, fast, minimum, failures):
    if slow not in current or fast not in current:
        failures.append(
            f"--min-speedup names missing from current run: {slow},{fast}")
        return
    speedup = current[slow] / current[fast]
    ok = speedup >= minimum
    print(f"speedup {slow} / {fast} = {speedup:.2f}x "
          f"(minimum {minimum:.2f}x) {spreads(current[slow], current[fast])}"
          f"{'' if ok else '  << TOO SLOW'}")
    if not ok:
        failures.append(
            f"{fast} is only {speedup:.2f}x faster than {slow} "
            f"(minimum {minimum:.2f}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current/baseline exceeds this")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset to compare "
                             "(default: every benchmark in CURRENT)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="SLOW,FAST,X",
                        help="assert real_time(SLOW)/real_time(FAST) >= X "
                             "within CURRENT (repeatable)")
    parser.add_argument("--min-speedup-when-kernel", action="append",
                        default=[], metavar="KERNELS,SLOW,FAST,X",
                        help="like --min-speedup, but only enforced when "
                             "CURRENT's context fairtopk_kernel is in the "
                             "|-separated KERNELS list (repeatable)")
    parser.add_argument("--max-ratio-pair", action="append", default=[],
                        metavar="A,B,X",
                        help="assert real_time(B) <= X * real_time(A) "
                             "within CURRENT (repeatable)")
    parser.add_argument("--max-ratio-vs", action="append", default=[],
                        metavar="BASE_NAME,CURR_NAME,X",
                        help="assert real_time(CURR_NAME in CURRENT) <= "
                             "X * real_time(BASE_NAME in BASELINE); skipped "
                             "when BASE_NAME is missing from the baseline "
                             "(repeatable)")
    args = parser.parse_args()

    baseline, _ = load_report(args.baseline)
    current, context = load_report(args.current)
    names = ([n for n in args.benchmarks.split(",") if n]
             if args.benchmarks else sorted(current))

    failures = []
    print(f"{'benchmark':55} {'baseline':>12} {'current':>12} {'ratio':>7}"
          f"  [baseline n, cv | current n, cv]")
    for name in names:
        if name not in current:
            failures.append(f"benchmark '{name}' missing from {args.current}")
            continue
        if name not in baseline:
            print(f"{name:55} {'-':>12} {str(current[name]):>12} "
                  f"{'new':>7}  [{current[name].spread()}]")
            continue
        ratio = current[name] / baseline[name]
        flag = "" if ratio <= args.max_ratio else "  << REGRESSION"
        print(f"{name:55} {str(baseline[name]):>12} {str(current[name]):>12} "
              f"{ratio:>6.2f}x  {spreads(baseline[name], current[name])}"
              f"{flag}")
        if ratio > args.max_ratio:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(limit {args.max_ratio:.2f}x)")

    for spec in args.min_speedup:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --min-speedup spec: {spec}")
            continue
        check_min_speedup(current, parts[0], parts[1], float(parts[2]),
                          failures)

    for spec in args.max_ratio_pair:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --max-ratio-pair spec: {spec}")
            continue
        a, b, limit = parts[0], parts[1], float(parts[2])
        if a not in current or b not in current:
            failures.append(
                f"--max-ratio-pair names missing from current run: {a},{b}")
            continue
        ratio = current[b] / current[a]
        ok = ratio <= limit
        print(f"ratio {b} / {a} = {ratio:.3f}x "
              f"(limit {limit:.3f}x) {spreads(current[b], current[a])}"
              f"{'' if ok else '  << TOO SLOW'}")
        if not ok:
            failures.append(
                f"{b} is {ratio:.3f}x of {a} (limit {limit:.3f}x)")

    for spec in args.max_ratio_vs:
        parts = spec.split(",")
        if len(parts) != 3:
            failures.append(f"bad --max-ratio-vs spec: {spec}")
            continue
        base_name, curr_name, limit = parts[0], parts[1], float(parts[2])
        if curr_name not in current:
            failures.append(
                f"--max-ratio-vs benchmark '{curr_name}' missing from "
                f"{args.current}")
            continue
        if base_name not in baseline:
            print(f"skipping cross-name cap {curr_name} vs {base_name} "
                  f"(not in baseline)")
            continue
        ratio = current[curr_name] / baseline[base_name]
        ok = ratio <= limit
        print(f"ratio {curr_name} / baseline {base_name} = {ratio:.3f}x "
              f"(limit {limit:.3f}x) "
              f"{spreads(current[curr_name], baseline[base_name])}"
              f"{'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append(
                f"{curr_name} is {ratio:.3f}x of baseline {base_name} "
                f"(limit {limit:.3f}x)")

    kernel = context.get("fairtopk_kernel", "")
    for spec in args.min_speedup_when_kernel:
        parts = spec.split(",")
        if len(parts) != 4:
            failures.append(f"bad --min-speedup-when-kernel spec: {spec}")
            continue
        kernels = parts[0].split("|")
        if kernel not in kernels:
            print(f"skipping kernel-gated speedup {parts[1]} / {parts[2]} "
                  f"(kernel '{kernel}' not in {parts[0]})")
            continue
        check_min_speedup(current, parts[1], parts[2], float(parts[3]),
                          failures)

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall perf gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
