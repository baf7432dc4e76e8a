#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that
  * spec-figure's simulated cells equal the committed fig11 baseline
    (bench/baselines/fig11_baseline.json) on the four configs they share;
  * every workload passes its checks in both modes, the traced replay builds
    byte-identical programs and results, and each mode prints exactly the
    metrics BENCHMARK.json declares.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

# spec-figure config name -> the fig11 baseline's column suffix.
FIG11_CONFIGS = {
    "base": "openuh_base",
    "SAFARA": "openuh_safara",
    "small+dim+SAFARA": "openuh_safara_clauses",
    "PGI-like": "pgi",
}


def declared():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def run_binary(self, workload, trace, *extra):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "1", "--seconds", "0",
             "--trace", str(trace), *extra],
            stdout=subprocess.PIPE, text=True, timeout=bench.RUN_TIMEOUT_S,
        )
        self.assertEqual(proc.returncode, 0, f"{workload} --trace {trace}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_spec_figure_matches_fig11_baseline(self):
        cells_path = os.path.join(bench.build_dir(), "spec-figure-cells.json")
        self.run_binary("spec-figure", 0, "--cells-out", cells_path)
        with open(cells_path) as f:
            cells = json.load(f)
        with open(os.path.join(bench.ROOT, "bench", "baselines", "fig11_baseline.json")) as f:
            rows = {row["name"]: row for row in json.load(f)["rows"]}
        self.assertEqual(len(cells), 10)
        for workload, by_config in cells.items():
            row = rows["fig11/" + workload]
            for config, column in FIG11_CONFIGS.items():
                cell = by_config[config]
                with self.subTest(workload=workload, config=config):
                    self.assertEqual(cell["cycles"], row["cycles." + column])
                    self.assertEqual(cell["regs"], row["regs_after." + column])
                    self.assertEqual(cell["checksum"], row["checksum." + column])

    def test_every_mode_passes_and_prints_the_declared_metrics(self):
        spec = declared()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in bench.WORKLOADS:
            for trace, wanted in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_binary(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    if trace == 0:
                        got["setup_s"] = "s"  # added by run.py
                    self.assertEqual(got, wanted)


if __name__ == "__main__":
    unittest.main()
