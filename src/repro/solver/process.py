"""External solver binaries as test targets.

The paper: "YinYang accepts SMT solver binaries as test targets and
obtains the solving results from the stdout stream, which makes YinYang
compatible with most SMT solvers."

:class:`ProcessSolver` adapts any command line that reads an SMT-LIB
file and prints ``sat`` / ``unsat`` / ``unknown``: the fused script is
written to a temporary ``.smt2`` file, the command runs with a timeout,
the first recognizable verdict on stdout is the answer, and abnormal
termination (signals, nonzero exits without a verdict, stderr error
signatures) is surfaced as :class:`~repro.solver.result.SolverCrash` —
exactly the observation model of Algorithm 1.

With real Z3/CVC4 binaries on PATH this class makes the whole campaign
run against them unchanged:

    z3 = ProcessSolver("z3", ["z3", "-smt2"], name="z3")
    cvc4 = ProcessSolver("cvc4", ["cvc4", "--strings-exp", "--lang", "smt2"])
"""

from __future__ import annotations

import os
import subprocess
import tempfile

from repro.smtlib.printer import print_script
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

_ERROR_MARKERS = (
    "segmentation fault",
    "assertion violation",
    "assertion failed",
    "fatal failure",
    "internal error",
    "unreachable",
)


class ProcessSolver:
    """Run an external solver command on each script."""

    def __init__(self, name, command, timeout=30.0, unknown_on_timeout=True):
        """``command`` is the argv prefix; the .smt2 path is appended."""
        self.name = name
        self.command = list(command)
        self.timeout = timeout
        self.unknown_on_timeout = unknown_on_timeout

    def check_script(self, script, directive=None):
        # External binaries get no budget knobs; a triage directive is
        # accepted for interface parity and ignored.
        text = print_script(script)
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".smt2", delete=False, encoding="utf-8"
        )
        try:
            handle.write(text)
            handle.close()
            return self._run(handle.name)
        finally:
            os.unlink(handle.name)

    def check(self, source):
        from repro.smtlib.parser import parse_script

        script = parse_script(source) if isinstance(source, str) else source
        return self.check_script(script)

    def _run(self, path):
        try:
            completed = subprocess.run(
                self.command + [path],
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            if self.unknown_on_timeout:
                return CheckOutcome(SolverResult.UNKNOWN, reason="timeout")
            raise SolverCrash(f"{self.name}: timeout", kind="timeout")
        except OSError as exc:
            raise SolverCrash(f"{self.name}: failed to start: {exc}", kind="spawn")

        verdict = self._parse_verdict(completed.stdout)
        stderr_lower = (completed.stderr or "").lower()

        if completed.returncode < 0:
            # Killed by a signal: the classic segfault observation.
            raise SolverCrash(
                f"{self.name}: terminated by signal {-completed.returncode}\n"
                f"{completed.stderr.strip()}",
                kind="signal",
            )
        # Error markers on stderr only signal a crash when the run was
        # otherwise abnormal (no verdict, or a nonzero exit): a solver
        # that answers and exits cleanly may still echo benign chatter
        # like `(assert ...)` diagnostics that a bare substring match
        # would misread as an assertion failure.
        abnormal = verdict is None or completed.returncode != 0
        if abnormal and any(marker in stderr_lower for marker in _ERROR_MARKERS):
            raise SolverCrash(
                f"{self.name}: internal error\n{completed.stderr.strip()}",
                kind="internal-error",
            )
        if verdict is None:
            if completed.returncode != 0:
                raise SolverCrash(
                    f"{self.name}: exit code {completed.returncode} with no verdict\n"
                    f"{completed.stderr.strip()}",
                    kind="abnormal-exit",
                )
            return CheckOutcome(SolverResult.UNKNOWN, reason="no verdict on stdout")
        return CheckOutcome(verdict, reason=f"stdout of {self.name}")

    @staticmethod
    def _parse_verdict(stdout):
        for line in (stdout or "").splitlines():
            token = line.strip().lower()
            if token == "sat":
                return SolverResult.SAT
            if token == "unsat":
                return SolverResult.UNSAT
            if token == "unknown":
                return SolverResult.UNKNOWN
        return None
