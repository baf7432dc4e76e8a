#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload spec-figure --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root). With --trace 0 the result carries the
end-to-end metrics, including setup_s: the median, over several fresh
processes, of the time from process start to the first timed job. With
--trace 1 it carries the per-layer metrics of the traced replay, and the last
traced pass's spans go to spans-<workload>.json in the build directory. The last
line of stdout is the result as one JSON object; build logs go to stderr.
The exit code is 0 only when every job passed its checks.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec-figure", "compile-fuzz", "nas-grid")
SETUP_PROBES = 5  # fresh processes before the measured run, and as many after
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "build.ninja")) and not os.path.exists(
        os.path.join(out, "Makefile")
    ):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def setup_seconds(binary, workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--setup-only"],
            check=True, capture_output=True, text=True, timeout=60,
        )
        word, seconds = probe.stdout.split()
        if word != "ready":
            raise RuntimeError("unexpected set-up probe output: " + probe.stdout)
        samples.append(float(seconds))
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        binary = build()
        # Half the set-up probes run before the measured run and half after,
        # so one slow stretch of the host sways the median less.
        setup = [] if args.trace else setup_seconds(binary, args.workload, args.seed)
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans-out", os.path.join(build_dir(), f"spans-{args.workload}.json")]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            setup += setup_seconds(binary, args.workload, args.seed)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, IndexError) as e:
        print(f"perfbench: no result: {e!r}", file=sys.stderr)
        return 1
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
