"""Campaign benchmark: ``yinyang campaign --deterministic --triage``.

    python3 perfbench/run.py --workload fusion-serial --seed 7 --seconds 30 --trace 0

Runs the workload's campaign as a closed-loop batch job, one round after
another, each round in a fresh process (so set-up is paid every time, as
a user pays it), for about ``--seconds`` seconds and at least three
rounds. Checks the outputs of every round before reporting, and prints
one JSON object as the last line of stdout: end-to-end metrics with
``--trace 0``, per-layer metrics from traced rounds with ``--trace 1``.
A failed check exits 1 with ``"correct": false`` and no metrics.

``--seed`` permutes the order in which the campaign visits the corpus
families; ``--workload-seed`` (default 1) seeds the corpora and the
mutant stream. README.md explains the split and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOAD_SEED, WORKLOADS  # noqa: E402

#: A run must end within 180 s even if a round hangs.
RUN_DEADLINE_S = 170
MIN_ROUNDS = 3
MAX_ROUNDS = 12
#: Set-up-only rounds before each untraced campaign round: set-up is
#: short and noisy, so its median needs more samples than the campaign
#: rounds give, spread over the whole run.
SETUP_ROUNDS = 3
#: Values every round of a workload must reproduce exactly.
EXACT_KEYS = (
    "digest",
    "counters",
    "cells",
    "faults_found",
    "decided_share",
    "completed_share",
    "unattributed_soundness",
)
#: Per-layer metrics that are counts, hence must repeat exactly.
LAYER_COUNTS = (
    "strategies.mutants",
    "strategies.mutation_failures",
    "triage.tier_easy",
    "triage.tier_hard",
    "triage.tier_hopeless",
    "faults.stalls",
    "faults.short_circuits",
    "solver.checks",
    "solver.check_samples",
    "solver.unknowns",
    "solver.sat_calls",
    "solver.strings_calls",
    "solver.nonlinear_calls",
    "solver.bitblast_calls",
    "journal.fsyncs",
    "journal.bytes_written",
)


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


class Bench:
    """The rounds of one benchmark run, in a private work directory."""

    def __init__(self, workload, workload_seed, order_seed, iterations=None):
        self.workload = workload
        self.workload_seed = workload_seed
        self.order_seed = order_seed
        self.iterations = iterations
        self.state_dir = os.path.join(ROOT, ".perfbench-work")
        self.work = os.path.join(self.state_dir, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def round(self, trace, setup_only=False):
        """Run one round in a fresh process; its result dict, with
        ``setup_s`` measured from the spawn."""
        self.count += 1
        out = os.path.join(self.work, f"round-{self.count}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "round.py"),
            "--workload", self.workload.name,
            "--workload-seed", str(self.workload_seed),
            "--order-seed", str(self.order_seed),
            "--trace", str(trace),
            "--out", out,
        ]
        if self.iterations:
            cmd += ["--iterations", str(self.iterations)]
        if setup_only:
            cmd.append("--setup-only")
        journal = None
        if self.workload.journal:
            journal = os.path.join(self.work, f"journal-{self.count}.jsonl")
            cmd += ["--journal", journal]
        spawned = time.monotonic()
        # Its own process group, so a hung round is killed with its workers.
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed("round did not finish before the run's deadline")
        if proc.returncode != 0:
            raise CheckFailed(f"round exited {proc.returncode}: {stderr.strip()[-2000:]}")
        with open(out, encoding="utf-8") as handle:
            data = json.load(handle)
        data["setup_s"] = data["entry"] - spawned
        data["round_s"] = time.monotonic() - spawned
        data["trace"] = trace
        for path in (out, journal):
            if path and os.path.exists(path):
                os.remove(path)
        if journal and not setup_only and data["journal_digest"] != data["digest"]:
            raise CheckFailed("journal on disk disagrees with the campaign result")
        return data

    def rounds(self, seconds, trace):
        """Campaign rounds for about ``seconds``, and set-up samples.

        Without ``trace``, untraced rounds, each after ``SETUP_ROUNDS``
        set-up-only rounds; with ``trace``, one untraced round followed
        by traced ones (their set-up is not sampled)."""
        started = time.monotonic()
        results = []
        setups = []
        while len(results) < MAX_ROUNDS:
            if results:
                measured = sum(1 for r in results if r["trace"] == trace)
                typical = statistics.median(r["round_s"] for r in results)
                enough = measured >= (2 if trace else MIN_ROUNDS)
                if enough and time.monotonic() - started + typical > seconds:
                    break
            if not trace:
                setups += [
                    self.round(0, setup_only=True)["setup_s"]
                    for _ in range(SETUP_ROUNDS)
                ]
            results.append(self.round(trace if results else 0))
            setups.append(results[-1]["setup_s"])
        return results, setups

    def check_against_other_workloads(self, digest):
        """Workloads that run the same campaign (serial and process
        pool) must find the same bug records; the first to run stores
        its digest in the checkout for the others."""
        path = os.path.join(self.state_dir, "digests.json")
        key = self.workload.campaign_key(self.workload_seed, self.iterations)
        try:
            with open(path, encoding="utf-8") as handle:
                known = json.load(handle)
        except (OSError, ValueError):
            known = {}
        if key in known and known[key]["digest"] != digest:
            raise CheckFailed(
                f"bug records differ from {known[key]['workload']} "
                f"on the same campaign ({key})"
            )
        if key not in known:
            known[key] = {"digest": digest, "workload": self.workload.name}
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(known, handle, sort_keys=True)
            os.replace(tmp, path)


def check_rounds(results):
    """Every round must reproduce the first exactly."""
    first = results[0]
    for key in EXACT_KEYS:
        for other in results[1:]:
            if other[key] != first[key]:
                raise CheckFailed(f"{key} differs between rounds of one run")
    if first["faults_found"] < 1:
        raise CheckFailed("the campaign found no injected fault")
    if first["unattributed_soundness"]:
        raise CheckFailed(
            f"{first['unattributed_soundness']} soundness records are not "
            "explained by an injected fault: the reference solver answered wrongly"
        )
    traced = [r for r in results if r["trace"]]
    for key in LAYER_COUNTS:
        for other in traced[1:]:
            if other["layers"][key] != traced[0]["layers"][key]:
                raise CheckFailed(f"per-layer count {key} differs between rounds")


def median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(results, setups):
    first = results[0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "mutants_per_s": (
            statistics.median(r["mutants"] / r["wall"] for r in results),
            "1/s",
        ),
        "peak_rss_mb": (median(results, "peak_rss_mb"), "MB"),
        "faults_found": (first["faults_found"], "count"),
        "decided_share": (first["decided_share"], "ratio"),
        "completed_share": (first["completed_share"], "ratio"),
    }


def per_layer(results):
    untraced = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    metrics = {}
    for key in traced[0]["layers"]:
        if key in LAYER_COUNTS:
            unit = "bytes" if key.endswith("bytes_written") else "count"
            metrics[key] = (traced[0]["layers"][key], unit)
        else:
            unit = "s" if key.endswith("_s") else "ms" if key.endswith("_ms") else "ratio"
            metrics[key] = (
                statistics.median(r["layers"][key] for r in traced),
                unit,
            )
    metrics["trace.overhead_s"] = (
        median(traced, "wall") - median(untraced, "wall"),
        "s",
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=WORKLOAD_SEED)
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the workload's iterations per cell (quick mode)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    bench = Bench(
        WORKLOADS[args.workload], args.workload_seed, args.seed, args.iterations
    )
    try:
        results, setups = bench.rounds(args.seconds, args.trace)
        check_rounds(results)
        bench.check_against_other_workloads(results[0]["digest"])
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        bench.close()
    metrics = per_layer(results) if args.trace else end_to_end(results, setups)
    report = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
