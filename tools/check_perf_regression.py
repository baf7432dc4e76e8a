#!/usr/bin/env python3
"""Host-time regression gate for reproduce --json documents.

Compares the host wall-clock simulation time (the sum of every `sim_ms.*`
counter over all rows) of a current run against a committed baseline:

    check_perf_regression.py baseline.json current.json [--max-regression 0.25]

Exits 1 when the current total exceeds the baseline total by more than the
tolerance. The tolerance is deliberately generous: shared CI runners are
noisy and differ from the machine that produced the baseline, so the gate is
meant to catch algorithmic regressions (the interpreter losing its fast
path, a pass going quadratic), not percent-level drift.

Compilation wall-clock (the sum of every `compile_ms.*` counter) is gated
the same way under its own tolerance (--max-compile-regression, default
25%): the compiler's allocation/scratch-reuse optimizations are exactly as
easy to lose as the simulator's fast path. Baselines stamped before
compile_ms counters existed are skipped with a note.

The simulated results (cycles, registers, checksums) are not gated here:
tests/golden/reproduce.txt pins every cell exactly.

Refresh the baseline after intentional perf changes:

    ./build/bench/reproduce --only fig11 --json bench/baselines/fig11_baseline.json
"""

import argparse
import json
import sys


def total_counter(doc, prefix):
    total = 0.0
    cells = 0
    for row in doc.get("rows", []):
        for key, value in row.items():
            if key.startswith(prefix):
                total += float(value)
                cells += 1
    return total, cells


def check_wall_clock(baseline, current, prefix, tolerance, *, required):
    """Noisy wall-clock gate over one counter prefix ("sim_ms." or
    "compile_ms."). Returns 0/1 like main. When the baseline lacks the
    counters entirely the gate is skipped (or failed, if `required`)."""
    label = prefix.rstrip(".")
    base_ms, base_cells = total_counter(baseline, prefix)
    cur_ms, cur_cells = total_counter(current, prefix)
    if base_cells == 0 or base_ms <= 0.0:
        if required:
            print(f"check_perf_regression: baseline has no {label} counters")
            return 1
        print(f"check_perf_regression: baseline predates {label} counters; "
              f"{label} gate skipped (refresh the baseline to arm it)")
        return 0
    if cur_cells != base_cells:
        print(
            f"check_perf_regression: {label} cell count changed "
            f"({base_cells} baseline vs {cur_cells} current); "
            f"refresh the baseline alongside the bench change"
        )
        return 1
    ratio = cur_ms / base_ms
    limit = 1.0 + tolerance
    print(
        f"{label} total: baseline {base_ms:.1f} ms, current {cur_ms:.1f} ms "
        f"({ratio:.3f}x, limit {limit:.2f}x, {cur_cells} cells)"
    )
    if ratio > limit:
        print(f"FAIL: {label} wall-clock regressed beyond {tolerance:.0%}")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown over the baseline (default 0.25)",
    )
    parser.add_argument(
        "--max-compile-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown of the summed compile_ms.* counters "
        "(default 0.25; wall-clock, so as generous as --max-regression)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    for name, doc in (("baseline", baseline), ("current", current)):
        rows = doc.get("rows", [])
        if rows:
            meta = rows[0]
            print(
                f"  {name}: dispatch={meta.get('dispatch', '?')} "
                f"grid_parallelism={meta.get('grid_parallelism', '?')} "
                f"sim_threads={meta.get('sim_threads', '?')}"
            )

    # A baseline with no sim_ms counters is unusable; compile_ms only
    # arrived later, so its gate degrades to a skip on stale baselines.
    failed = bool(
        check_wall_clock(baseline, current, "sim_ms.", args.max_regression,
                         required=True)
    )
    failed |= bool(
        check_wall_clock(baseline, current, "compile_ms.",
                         args.max_compile_regression, required=False)
    )
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
