"""Tests of the benchmark itself.

    python3 -m unittest discover -s bccbench/tests       # from the repo root

The tail-rule tests are instant. The end-to-end tests run every workload
once with and once without tracing (a few minutes; the first run builds).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bccbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TailRule(unittest.TestCase):

    def test_hundred_samples_give_p90(self):
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90, 90.0, 100))

    def test_eleven_samples_give_the_minimum(self):
        v, pct, n = run.tail([5.0] + [9.0] * 10)
        self.assertEqual((v, n), (5.0, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_exactly_ten_samples_lie_beyond(self):
        xs = [float(i) for i in range(37)]
        v, _, n = run.tail(xs)
        self.assertEqual(sum(x > v for x in xs), 10)
        self.assertEqual(n, 37)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class Scaling(unittest.TestCase):

    RAW = {"reference": [[10.0, 30.0], [40.0]], "latency": {"m": [[1.0, 2.0], [3.0, 4.0]]}}

    def test_each_pass_is_scaled_by_its_own_reference(self):
        # pass 0: reference median 20 ms, factor 1; pass 1: 40 ms, factor 0.5
        self.assertEqual(run.per_query(self.RAW, "m"), [1.0, 2.5])

    def test_unscaled_is_the_plain_median_per_query(self):
        self.assertEqual(run.per_query(self.RAW, "m", scaled=False), [1.5, 3.5])


class EndToEnd(unittest.TestCase):
    """Every metric BENCHMARK.json names is emitted on every workload, and
    traced and untraced runs of one seed give the same answers.
    """

    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in BENCHMARK_WORKLOADS:
            for trace in (0, 1):
                p = bench(w, 7, trace)
                if p.returncode != 0:
                    raise AssertionError(f"{w} trace={trace} failed:\n{p.stderr[-3000:]}")
                lines = p.stdout.strip().splitlines()
                cls.runs[(w, trace)] = (json.loads(lines[-2]), json.loads(lines[-1]))

    def test_every_metric_is_emitted_with_its_unit(self):
        for (w, trace), (_, result) in self.runs.items():
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            wanted = BENCH["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted}, (w, trace))
            for m in wanted:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], (w, m["name"]))
                self.assertTrue(math.isfinite(got["value"]), (w, m["name"]))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in BENCHMARK_WORKLOADS:
            for name, got in self.runs[(w, 0)][1]["metrics"].items():
                self.assertNotEqual(got["value"], 0, (w, name))

    def test_answers_are_correct(self):
        for (w, trace), (detail, result) in self.runs.items():
            self.assertTrue(result["correct"], (w, trace, detail["failures"]))
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_and_untraced_runs_give_identical_answers(self):
        for w in BENCHMARK_WORKLOADS:
            self.assertEqual(self.runs[(w, 0)][0]["answers"], self.runs[(w, 1)][0]["answers"], w)

    def test_tails_record_percentile_and_sample_count(self):
        for w in BENCHMARK_WORKLOADS:
            tails = self.runs[(w, 0)][0]["tails"]
            self.assertEqual(set(tails), {m["name"] for m in BENCH["end_to_end"]
                                          if m["name"].endswith("_tail_ms")})
            for t in tails.values():
                self.assertGreaterEqual(t["samples"], 11)
                self.assertAlmostEqual(t["percentile"], 100 * (t["samples"] - 10) / t["samples"], 1)


BENCHMARK_WORKLOADS = [w["name"] for w in BENCH["workloads"]]


class OutsideACheckout(unittest.TestCase):

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH_DIR, os.path.join(d, "bccbench"),
                            ignore=shutil.ignore_patterns("target", "out", "__pycache__"))
            p = bench(BENCHMARK_WORKLOADS[0], 1, 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
