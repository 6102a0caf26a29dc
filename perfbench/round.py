"""One benchmark round: a single campaign in a fresh process.

Does what ``yinyang campaign --deterministic --triage`` does for the
chosen workload (corpora, deterministic solver factory, ``run_campaign``)
and writes one JSON result to ``--out``: the moment ``run_campaign`` was
entered on the system-wide monotonic clock (the parent measures set-up
from its spawn time), the campaign's wall and CPU time, peak RSS, the
report counters, the bug-record digest and, with ``--trace 1``, the
per-layer metrics. Run by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


class SetupDone(Exception):
    """Raised on entering run_campaign in a set-up-only round."""


def bug_digest(reports):
    """sha256 over every cell's serialized bug records, cells sorted."""
    from repro.robustness.journal import serialize_bug_record

    payload = [
        [list(key), [serialize_bug_record(b) for b in reports[key].bugs]]
        for key in sorted(reports)
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def outcome_summary(result, iterations_attempted):
    from repro.campaign.classify import attribute_fault

    counters = result.summary_counters()
    checked = counters["fused"]
    lost = counters["contained_errors"] + len(result.poisoned)
    return {
        "counters": counters,
        "cells": len(result.reports),
        "attempted": iterations_attempted,
        "failed": lost + (iterations_attempted - counters["iterations"]),
        "faults_found": sum(len(v) for v in result.found_faults().values()),
        "decided_share": (checked - counters["unknowns"]) / checked if checked else 0.0,
        "completed_share": (counters["iterations"] - lost) / iterations_attempted,
        "unattributed_soundness": sum(
            1
            for record in result.records
            if record.kind == "soundness" and not attribute_fault(record)
        ),
        "digest": bug_digest(result.reports),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workload-seed", type=int, required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--journal", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop as soon as run_campaign is entered (a set-up sample)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    iterations = args.iterations or workload.iterations

    tracer = None
    instrumented = contextlib.nullcontext()
    if args.trace:
        import layers

        tracer = layers.Tracer()
        instrumented = layers.instrument(tracer)

    import repro.campaign
    from repro.seeds import corpus as corpus_module

    timing = {}
    with instrumented:
        original = repro.campaign.run_campaign

        def entered(*a, **k):
            timing["entry"] = time.monotonic()
            if args.setup_only:
                raise SetupDone
            timing["cpu"] = time.process_time()
            start = time.perf_counter()
            try:
                return original(*a, **k)
            finally:
                timing["wall"] = time.perf_counter() - start
                timing["cpu"] = time.process_time() - timing["cpu"]

        repro.campaign.run_campaign = entered
        try:
            if workload.logic:
                corpora = {
                    workload.logic: corpus_module.build_corpus(
                        workload.logic, scale=workload.scale, seed=args.workload_seed
                    )
                }
            else:
                corpora = corpus_module.build_all_corpora(
                    scale=workload.scale, seed=args.workload_seed
                )
            # The run's --seed picks the order the campaign visits the
            # families in; the cells themselves stay the same.
            families = sorted(corpora)
            random.Random(args.order_seed).shuffle(families)
            corpora = {family: corpora[family] for family in families}
            factory = repro.campaign.solver_factory_for_logic(
                workload.logic, deterministic=True
            )
            result = repro.campaign.run_campaign(
                corpora,
                iterations_per_cell=iterations,
                seed=args.workload_seed,
                performance_threshold=None,
                journal=args.journal,
                mode=workload.mode,
                workers=workload.workers,
                solver_factory=factory,
                triage=True,
                logic=workload.logic,
            )
        except SetupDone:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump({"entry": timing["entry"]}, handle)
            return 0
        finally:
            repro.campaign.run_campaign = original
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)
    attempted = len(result.reports) * iterations
    out = {
        "entry": timing["entry"],
        "wall": timing["wall"],
        "cpu": timing["cpu"],
        "children_cpu": children.ru_utime + children.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        "mutants": result.summary_counters()["fused"],
        **outcome_summary(result, attempted),
    }
    if args.journal:
        from repro.robustness.journal import CampaignJournal

        out["journal_digest"] = bug_digest(
            CampaignJournal(args.journal).completed_cells()
        )
    if tracer is not None:
        import layers

        metrics = layers.layer_metrics(tracer.spans, timing["wall"])
        metrics.update(
            layers.pool_metrics(result.shard_counters, timing["wall"], workload.workers)
        )
        # Pool workers are not traced; their critical path is accounted.
        metrics["unattributed_s"] -= metrics["pool.critical_path_s"]
        metrics["proc.cpu_s"] = timing["cpu"] + out["children_cpu"]
        metrics["proc.offcpu_s"] = timing["wall"] - timing["cpu"]
        out["layers"] = metrics
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
