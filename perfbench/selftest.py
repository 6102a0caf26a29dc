"""Self-tests for the benchmark's helpers, plus a quick mode.

    python3 perfbench/selftest.py          # helpers only, a few seconds
    python3 perfbench/selftest.py --quick  # also every workload end to end

The quick mode runs all three workloads and one traced run at one
iteration per cell, and checks that the serial and process-pool
campaigns find the same bug records; it takes well under a minute on a
2-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUICK = "--quick" in sys.argv


def _round(workload, trace, out_dir, journal=False):
    out = os.path.join(out_dir, f"{workload}-{trace}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", workload,
        "--workload-seed", "1",
        "--order-seed", str(trace),
        "--iterations", "1",
        "--trace", str(trace),
        "--out", out,
    ]
    if journal:
        cmd += ["--journal", os.path.join(out_dir, f"{workload}-{trace}.jsonl")]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


class TracerTest(unittest.TestCase):
    def test_every_wrapper_restores_the_original(self):
        originals = []
        for target, attribute, _ in layers.ENTRY_POINTS:
            owner = layers._resolve(target)
            originals.append((owner, attribute, getattr(owner, attribute)))
        with self.assertRaises(RuntimeError):
            with layers.instrument(layers.Tracer()):
                for owner, attribute, original in originals:
                    self.assertIsNot(getattr(owner, attribute), original)
                raise RuntimeError("traced code failed")
        for owner, attribute, original in originals:
            self.assertIs(getattr(owner, attribute), original, attribute)

    def test_self_time_is_duration_minus_children(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
        tracer = layers.Tracer(clock=lambda: next(ticks))
        tracer.call(
            "outer",
            lambda: (tracer.call("inner", lambda: None, (), {}),
                     tracer.call("inner", lambda: None, (), {})),
            (),
            {},
        )
        durations, self_times = layers.span_times(tracer.spans)
        self.assertEqual(durations, [10.0, 2.0, 0.5])
        self.assertEqual(self_times, [7.5, 2.0, 0.5])

    def test_raising_call_is_marked_and_propagates(self):
        tracer = layers.Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.call("strategies.mutate", boom, (), {})
        self.assertEqual(tracer.spans[0][4], "raised")
        self.assertEqual(
            layers.layer_metrics(tracer.spans, 1.0)["strategies.mutation_failures"], 1
        )


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(layers.percentile(values, 0.5), {"value": 50.0, "samples": 100})
        self.assertEqual(layers.percentile(values, 0.9), {"value": 90.0, "samples": 100})
        self.assertEqual(layers.percentile([3.0], 0.9), {"value": 3.0, "samples": 1})
        self.assertEqual(layers.percentile([], 0.9), {"value": 0.0, "samples": 0})


class PoolMetricsTest(unittest.TestCase):
    def test_critical_path_and_overhead(self):
        shards = {
            ("a",): [{"elapsed": 1.0}, {"elapsed": 3.0}],
            ("b",): [{"elapsed": 2.0}, {"elapsed": 2.0}],
        }
        metrics = layers.pool_metrics(shards, wall=6.0, workers=2)
        self.assertEqual(metrics["pool.critical_path_s"], 5.0)
        self.assertEqual(metrics["pool.overhead_s"], 1.0)
        self.assertEqual(metrics["pool.imbalance"], 5.0 / 4.0)
        self.assertEqual(metrics["pool.busy_share"], 8.0 / 12.0)


@unittest.skipUnless(QUICK, "end-to-end rounds run with --quick")
class QuickModeTest(unittest.TestCase):
    def test_traced_digest_equals_untraced_and_process_equals_serial(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            plain = _round("fusion-serial", 0, tmp, journal=True)
            traced = _round("fusion-serial", 1, tmp, journal=True)
            pooled = _round("fusion-process2", 0, tmp)
        self.assertEqual(traced["digest"], plain["digest"])
        self.assertEqual(plain["journal_digest"], plain["digest"])
        self.assertEqual(pooled["digest"], plain["digest"])
        self.assertEqual(traced["counters"], plain["counters"])
        self.assertGreater(traced["layers"]["journal.fsyncs"], 0)

    def test_every_workload_and_the_traced_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
        # The traced run starts with an untraced round, so fusion-serial
        # is covered both ways.
        runs = [(name, 0) for name in WORKLOADS if name != "fusion-serial"]
        for name, trace in runs + [("fusion-serial", 1)]:
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name,
                    "--seed", "1",
                    "--seconds", "1",
                    "--iterations", "1",
                    "--trace", str(trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=120,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(report["correct"])
            metrics = declared["per_layer" if trace else "end_to_end"]
            self.assertEqual(
                {name: m["unit"] for name, m in report["metrics"].items()},
                {m["name"]: m["unit"] for m in metrics},
            )


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + [a for a in sys.argv[1:] if a != "--quick"])
