#!/usr/bin/env python3
"""Check or re-bless the golden files in tests/golden/.

Default mode verifies: for every MANIFEST entry it runs
`safcc <kernel>.acc --config <config> --opt-level <n> --dump-vir` and
compares the output byte-for-byte against the checked-in .vir file,
printing a unified diff for any mismatch (exit 1).

It also pins the fuzz corpus: `fuzz_vir.digest` holds one line per
(seed, config) for the FUZZ_SEEDS x FUZZ_CONFIGS grid, the FNV-1a 64 hash
of `safcc <program> --config <config> --dump-vir` on the program
`safcc-fuzz --emit-seed <seed>` prints, and one line per (seed, config, cap)
for the FUZZ_SEEDS x FUZZ_CAPPED_CONFIGS x FUZZ_CAPS grid, the same hash
with `--max-regs <cap>` added. No fuzz kernel spills at the default cap;
the capped lines pin the allocator's spill rounds, its remat discount and
its optimistic push. `GoldenVir.FuzzDigestsMatch` recomputes the same
hashes in-process.

It pins the simulator's observable schedule: `sim_profile.digest` holds one
line per (workload, config) for the SIM_WORKLOADS x SIM_CONFIGS grid, the
FNV-1a 64 of the `safcc --workload <workload> --config <config>
--sim-threads 1 --sim-profile-out` document (per-SM and per-pc issue and stall
attribution, warp timelines). `GoldenSimProfile.DigestsMatch` recomputes the
same hashes in-process.

And it pins the paper's evaluation: `reproduce.txt` is the stdout of
`bench/reproduce` at the default thread budgets, every table plus each
distinct cell's cycles, registers and checksum (the
`bench_reproduce_matches_golden` ctest checks the same file).

`--bless` rewrites the .vir files, the digests and reproduce.txt from the
current output instead. Bless only after reviewing the diff — the snapshots
are the contract that codegen, the VIR pass pipeline and the simulated
results are stable.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FUZZ_SEEDS = range(1, 51)
FUZZ_CONFIGS = ("base", "safara", "safara_clauses", "pgi")
FUZZ_CAPPED_CONFIGS = ("base", "safara_clauses")
FUZZ_CAPS = (16, 8)
DIGEST_HEADER = (
    "# FNV-1a 64 of `safcc <program> --config <config> --dump-vir`, where\n"
    "# <program> is `safcc-fuzz --emit-seed <seed>`. One line per pair:\n"
    "#   <seed> <config> <hash>\n"
    "# then one line per capped triple, compiled with `--max-regs <cap>` too:\n"
    "#   <seed> <config> <cap> <hash>\n"
    "# Regenerate with: python3 tools/update_golden.py --bless\n")

# One sim thread, the cheapest: every shipped workload is race-free, so more
# threads write the same documents (tests/test_sim.cpp, SimDeterminism.*).
SIM_WORKLOADS = ("303.ostencil", "304.olbm", "314.omriq", "350.md", "352.ep",
                 "353.clvrleaf", "354.cg", "355.seismic", "356.sp", "363.swim",
                 "EP", "CG", "MG", "SP", "LU", "BT")
SIM_CONFIGS = ("base", "small", "safara", "safara_clauses", "pgi")
SIM_DIGEST_HEADER = (
    "# FNV-1a 64 of the document `safcc --workload <workload> --config <config>\n"
    "# --sim-threads 1 --sim-profile-out FILE` writes. One line per pair:\n"
    "#   <workload> <config> <hash>\n"
    "# Regenerate with: python3 tools/update_golden.py --bless\n")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def fuzz_digest(safcc, safcc_fuzz):
    """The digest file's text, or None after printing a tool failure."""
    grid = [(config, None) for config in FUZZ_CONFIGS]
    capped = [(config, cap) for cap in FUZZ_CAPS for config in FUZZ_CAPPED_CONFIGS]
    lines = [DIGEST_HEADER]
    capped_lines = []
    with tempfile.TemporaryDirectory() as tmp:
        program = os.path.join(tmp, "fuzz.acc")
        for seed in FUZZ_SEEDS:
            emit = subprocess.run([safcc_fuzz, "--emit-seed", str(seed)], capture_output=True)
            if emit.returncode != 0:
                print(f"FAIL fuzz seed {seed}: safcc-fuzz exited {emit.returncode}",
                      file=sys.stderr)
                return None
            with open(program, "wb") as f:
                f.write(emit.stdout)
            for config, cap in grid + capped:
                cmd = [safcc, program, "--config", config, "--dump-vir"]
                if cap is not None:
                    cmd += ["--max-regs", str(cap)]
                proc = subprocess.run(cmd, capture_output=True)
                name = config if cap is None else f"{config} {cap}"
                if proc.returncode != 0:
                    print(f"FAIL fuzz seed {seed} {name}: safcc exited "
                          f"{proc.returncode}:\n{proc.stderr.decode()}", file=sys.stderr)
                    return None
                line = f"{seed} {name} {fnv1a64(proc.stdout):016x}\n"
                (lines if cap is None else capped_lines).append(line)
    return "".join(lines + capped_lines)


def sim_profile_digest(safcc):
    """The sim profile digest's text, or None after printing a tool failure."""
    lines = [SIM_DIGEST_HEADER]
    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "profile.json")
        for workload in SIM_WORKLOADS:
            for config in SIM_CONFIGS:
                proc = subprocess.run([safcc, "--workload", workload, "--config", config,
                                       "--sim-threads", "1", "--sim-profile-out", profile],
                                      capture_output=True)
                if proc.returncode != 0:
                    print(f"FAIL sim profile {workload} {config}: safcc exited "
                          f"{proc.returncode}:\n{proc.stderr.decode()}", file=sys.stderr)
                    return None
                with open(profile, "rb") as f:
                    lines.append(f"{workload} {config} {fnv1a64(f.read()):016x}\n")
    return "".join(lines)


def settle(path, actual, bless, producer):
    """Rewrites (under --bless) or checks one golden file against `actual`.
    Returns (failed, blessed)."""
    rel = os.path.relpath(path, REPO)
    old = open(path).read() if os.path.exists(path) else None
    if bless:
        if old == actual:
            return False, False
        with open(path, "w") as f:
            f.write(actual)
        print(f"blessed {rel}")
        return False, True
    if old is None:
        print(f"FAIL missing golden {rel} (run with --bless)", file=sys.stderr)
        return True, False
    if old != actual:
        print(f"FAIL {producer} differs from {rel}:", file=sys.stderr)
        sys.stderr.writelines(difflib.unified_diff(
            old.splitlines(True), actual.splitlines(True),
            fromfile="golden", tofile=producer))
        return True, False
    return False, False


def parse_manifest(path):
    entries = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("0", "1", "2"):
                sys.exit(f"{path}:{lineno}: expected '<kernel> <config> <0|1|2>', got {line!r}")
            entries.append((parts[0], parts[1], parts[2]))
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--safcc", default=os.path.join(REPO, "build", "tools", "safcc"),
                    help="path to the safcc binary (default: build/tools/safcc); "
                         "safcc-fuzz is taken from the same directory and "
                         "reproduce from ../bench")
    ap.add_argument("--golden-dir", default=os.path.join(REPO, "tests", "golden"),
                    help="directory holding MANIFEST, *.acc, *.vir, fuzz_vir.digest, "
                         "sim_profile.digest and reproduce.txt")
    ap.add_argument("--bless", action="store_true",
                    help="rewrite the .vir snapshots, the digests and "
                         "reproduce.txt from current output")
    args = ap.parse_args()

    build = os.path.dirname(os.path.dirname(args.safcc))
    safcc_fuzz = os.path.join(os.path.dirname(args.safcc), "safcc-fuzz")
    reproduce = os.path.join(build, "bench", "reproduce")
    for tool in (args.safcc, safcc_fuzz, reproduce):
        if not os.path.exists(tool):
            sys.exit(f"update_golden: {tool} not found (build first, or pass --safcc)")

    entries = parse_manifest(os.path.join(args.golden_dir, "MANIFEST"))
    failures = 0
    blessed = 0
    for kernel, config, opt in entries:
        source = os.path.join(args.golden_dir, f"{kernel}.acc")
        golden = os.path.join(args.golden_dir, f"{kernel}.{config}.O{opt}.vir")
        cmd = [args.safcc, source, "--config", config, "--opt-level", opt, "--dump-vir"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL {kernel} {config} O{opt}: safcc exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        failed, wrote = settle(golden, proc.stdout, args.bless, "safcc --dump-vir")
        failures += failed
        blessed += wrote

    for name, digest, producer in (
            ("fuzz_vir.digest", fuzz_digest(args.safcc, safcc_fuzz), "safcc --dump-vir"),
            ("sim_profile.digest", sim_profile_digest(args.safcc),
             "safcc --sim-profile-out")):
        if digest is None:
            failures += 1
            continue
        failed, wrote = settle(os.path.join(args.golden_dir, name), digest, args.bless,
                               producer)
        failures += failed
        blessed += wrote

    proc = subprocess.run([reproduce], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL reproduce exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        failures += 1
    else:
        failed, wrote = settle(os.path.join(args.golden_dir, "reproduce.txt"), proc.stdout,
                               args.bless, "reproduce")
        failures += failed
        blessed += wrote

    total = len(entries) + 3
    if args.bless:
        print(f"update_golden: {blessed} snapshot(s) rewritten, "
              f"{total - blessed} unchanged"
              + (f", {failures} failure(s)" if failures else ""))
        return 1 if failures else 0
    if failures:
        print(f"update_golden: {failures}/{total} snapshot(s) differ "
              f"(review, then tools/update_golden.py --bless)", file=sys.stderr)
        return 1
    print(f"update_golden: all {total} snapshot(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
