"""Outside-in layer tracing for the campaign benchmark.

The benchmark never edits the program. A traced round rebinds the public
entry points of each layer (class methods and module attributes) to thin
wrappers that record one span per call, in memory, and restores every
original when the round ends. Self time is a span's duration minus the
time covered by its direct child spans, so the self times of all spans
plus the campaign root's own self time (``unattributed_s``) add up to
the campaign's wall time.

Only the process that installs the wrappers is traced: spawned pool
workers import the program afresh, so ``pool.*`` metrics come from
``CampaignResult.shard_counters`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module path[:class name], attribute, span name). Each attribute is
# looked up at call time by its callers, so rebinding it here reaches
# every call made in this process.
ENTRY_POINTS = (
    ("repro.campaign", "run_campaign", "campaign"),
    ("repro.seeds.corpus", "build_corpus", "seeds.build"),
    ("repro.strategies.fusion:FusionStrategy", "mutate", "strategies.mutate"),
    ("repro.strategies.opfuzz:OpFuzzStrategy", "mutate", "strategies.mutate"),
    ("repro.campaign.triage:TriagePolicy", "route", "triage.route"),
    ("repro.faults.faulty_solver:FaultySolver", "check_script", "faults.check"),
    ("repro.faults.faulty_solver", "analyze_script", "faults.analyze"),
    ("repro.solver.solver:ReferenceSolver", "check_script", "solver.check"),
    ("repro.solver.dpllt", "preprocess", "solver.preprocess"),
    ("repro.solver.tseitin", "encode", "solver.tseitin"),
    ("repro.solver.sat:SatSolver", "solve", "solver.sat"),
    ("repro.solver.strings", "check_strings", "solver.strings"),
    ("repro.solver.nonlinear", "check_nonlinear", "solver.nonlinear"),
    ("repro.solver.bitblast", "check_bv", "solver.bitblast"),
    ("repro.core.yinyang", "check_mutant", "checker.check"),
    ("repro.robustness.journal:CampaignJournal", "record_cell", "journal.record"),
    ("os", "fsync", "journal.fsync"),
)


def _note_route(result):
    return result[0]  # the triage tier name


def _note_outcome(result):
    stats = getattr(result, "stats", None) or {}
    return {
        "unknown": result.result.value == "unknown",
        "slow": bool(stats.get("slow_faults")),
    }


def _proc_write_chars():
    """Bytes this process has passed to write() so far (``wchar``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


#: Per-span annotations taken from the return value (or, for the
#: journal, from the write-byte counter around the call).
NOTES = {
    "triage.route": _note_route,
    "solver.check": _note_outcome,
    "faults.check": _note_outcome,
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent_index, note]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs):
        span = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        io_before = _proc_write_chars() if name == "journal.record" else 0
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = "raised"
            raise
        else:
            note = NOTES.get(name)
            if note is not None:
                span[4] = note(result)
            elif name == "journal.record":
                span[4] = _proc_write_chars() - io_before
            return result
        finally:
            span[2] = self.clock()
            self._stack.pop()


def _resolve(target):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrapper(tracer, name, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer, entry_points=ENTRY_POINTS):
    """Rebind every entry point to a span-recording wrapper; restore
    the originals on exit, also when the traced code raises."""
    saved = []
    try:
        for target, attribute, name in entry_points:
            owner = _resolve(target)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapper(tracer, name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def percentile(values, share):
    """Nearest-rank percentile of ``values`` with its sample count:
    ``{"value": v, "samples": n}`` (``value`` is 0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return {"value": 0.0, "samples": 0}
    rank = max(1, -(-len(ordered) * share // 1))
    return {"value": ordered[int(rank) - 1], "samples": len(ordered)}


def span_times(spans):
    """Per-span (duration, self time) lists, parallel to ``spans``."""
    durations = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += durations[index]
    return durations, [d - c for d, c in zip(durations, covered)]


def layer_metrics(spans, wall):
    """The per-layer metrics of one traced campaign.

    ``wall`` is the campaign's wall time. Every ``<layer>_s`` metric is
    self time except ``solver.check_s``, which includes the solver's
    internals (``solver.self_s`` is its own share), and the leaf layers
    ``seeds.build_s`` and ``journal.record_s`` (whole calls, plus the
    journal's fsyncs outside ``record_cell``).
    """
    durations, self_times = span_times(spans)
    total = {}
    own = {}
    calls = {}
    for index, (name, _, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + durations[index]
        own[name] = own.get(name, 0.0) + self_times[index]
        calls[name] = calls.get(name, 0) + 1
    children_names = [set() for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children_names[span[3]].add(span[0])

    def notes(name):
        return [span[4] for span in spans if span[0] == name]

    checks = [d for d, span in zip(durations, spans) if span[0] == "solver.check"]
    tiers = notes("triage.route")
    faults = [
        (span[4], children_names[index])
        for index, span in enumerate(spans)
        if span[0] == "faults.check"
    ]
    records = [d for d, span in zip(durations, spans) if span[0] == "journal.record"]
    quarter = len(records) // 4
    growth = 0.0
    if quarter:
        first = sum(records[:quarter]) / quarter
        growth = (sum(records[-quarter:]) / quarter) / first if first > 0 else 0.0
    # The meta commit at campaign start fsyncs outside record_cell;
    # its wait is journal time too.
    record_fsyncs = 0
    stray_fsync_s = 0.0
    for duration, span in zip(durations, spans):
        if span[0] == "journal.fsync":
            if span[3] >= 0 and spans[span[3]][0] == "journal.record":
                record_fsyncs += 1
            else:
                stray_fsync_s += duration
    p50 = percentile(checks, 0.5)
    p90 = percentile(checks, 0.9)
    mutate_notes = notes("strategies.mutate")
    return {
        "seeds.build_s": total.get("seeds.build", 0.0),
        "strategies.mutate_s": own.get("strategies.mutate", 0.0),
        "strategies.mutants": sum(1 for n in mutate_notes if n != "raised"),
        "strategies.mutation_failures": sum(1 for n in mutate_notes if n == "raised"),
        "triage.route_s": own.get("triage.route", 0.0),
        "triage.tier_easy": tiers.count("easy"),
        "triage.tier_hard": tiers.count("hard"),
        "triage.tier_hopeless": tiers.count("hopeless"),
        "faults.self_s": own.get("faults.check", 0.0),
        "faults.analyze_s": own.get("faults.analyze", 0.0),
        "faults.stalls": sum(
            1 for note, _ in faults if isinstance(note, dict) and note["slow"]
        ),
        "faults.short_circuits": sum(
            1 for _, kids in faults if "solver.check" not in kids
        ),
        "solver.checks": calls.get("solver.check", 0),
        "solver.check_s": total.get("solver.check", 0.0),
        "solver.self_s": own.get("solver.check", 0.0),
        "solver.check_p50_ms": p50["value"] * 1e3,
        "solver.check_p90_ms": p90["value"] * 1e3,
        "solver.check_samples": p90["samples"],
        "solver.check_max_share": (max(checks) / wall) if checks and wall > 0 else 0.0,
        "solver.unknowns": sum(
            1 for n in notes("solver.check") if isinstance(n, dict) and n["unknown"]
        ),
        "solver.preprocess_s": own.get("solver.preprocess", 0.0),
        "solver.tseitin_s": own.get("solver.tseitin", 0.0),
        "solver.sat_s": own.get("solver.sat", 0.0),
        "solver.sat_calls": calls.get("solver.sat", 0),
        "solver.strings_s": own.get("solver.strings", 0.0),
        "solver.strings_calls": calls.get("solver.strings", 0),
        "solver.nonlinear_s": own.get("solver.nonlinear", 0.0),
        "solver.nonlinear_calls": calls.get("solver.nonlinear", 0),
        "solver.bitblast_s": own.get("solver.bitblast", 0.0),
        "solver.bitblast_calls": calls.get("solver.bitblast", 0),
        "checker.self_s": own.get("checker.check", 0.0),
        "journal.record_s": total.get("journal.record", 0.0) + stray_fsync_s,
        "journal.fsyncs": record_fsyncs,
        "journal.bytes_written": sum(
            n for n in notes("journal.record") if isinstance(n, int)
        ),
        "journal.growth": growth,
        "unattributed_s": own.get("campaign", 0.0),
    }


def pool_metrics(shard_counters, wall, workers):
    """``pool.*`` metrics from ``CampaignResult.shard_counters``."""
    slowest = []
    mean = []
    busy = 0.0
    for shards in shard_counters.values():
        elapsed = [shard.get("elapsed", 0.0) for shard in shards]
        if not elapsed:
            continue
        slowest.append(max(elapsed))
        mean.append(sum(elapsed) / len(elapsed))
        busy += sum(elapsed)
    critical = float(sum(slowest))
    return {
        "pool.critical_path_s": critical,
        "pool.overhead_s": wall - critical if slowest else 0.0,
        "pool.imbalance": critical / sum(mean) if sum(mean) > 0 else 0.0,
        "pool.busy_share": busy / (workers * wall) if slowest and wall > 0 else 0.0,
    }
