"""Tiered solve budgets: the directive a triage layer hands a solver.

A :class:`SolveDirective` scales the reference solver's step-counted
budgets (DPLL rounds, nonlinear enumeration, string assignments) and
its optional wall-clock deadline, and switches on the fused-structure
fast paths (definition elimination, model guessing). It is frozen and
picklable, so a directive can ride a
:class:`~repro.core.config.YinYangConfig` across the process-pool
spawn boundary unchanged.

Budget scales are exact rationals ``(numerator, denominator)`` applied
with :func:`scale_int` — deterministic integer arithmetic, never
floats, so the scaled budget of a tier is identical on every machine
and the triage layer's determinism guarantee survives the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The identity scale: leave the configured budget untouched.
FULL = (1, 1)


def scale_int(value, ratio):
    """``value`` scaled by the rational ``ratio``, floored, at least 1.

    Pure integer arithmetic — no float rounding — so every host
    computes the same scaled budget. The floor of 1 keeps a directive
    from zeroing a budget entirely: even the fail-fast tier must make
    one attempt so a trivially easy formula can still answer.
    """
    numerator, denominator = ratio
    return max(1, (value * numerator) // denominator)


@dataclass(frozen=True)
class SolveDirective:
    """How hard one solver check should try.

    - ``tier`` — the triage tier name this directive implements
      (``"easy"`` / ``"hard"`` / ``"hopeless"``), surfaced in
      telemetry as ``triage.tier.<tier>``;
    - ``rounds`` / ``nonlinear`` / ``strings`` — rational scales
      applied to ``max_rounds``, ``nonlinear_budget`` and the string
      solver's ``max_assignments``;
    - ``timeout`` — multiplier on the wall-clock deadline (only
      meaningful for non-deterministic configs; deterministic solvers
      run with ``timeout_seconds=0`` and stay wall-clock free);
    - ``eliminate_definitions`` — substitute away pinned definition
      variables (the unsat-fusion constraint ``(= z (f x y))``) before
      DPLL(T);
    - ``model_guess`` — try cheap candidate assignments through the
      evaluator before building the abstraction (verified-sat only, so
      it can never flip a definite verdict);
    - ``shrink_cores`` — keep the DPLL(T) loop's deletion-based
      conflict minimization (``False`` skips it; sound either way, but
      on budget-burning mutants the minimization probes dominate the
      solve, so reduced tiers turn it off).
    """

    tier: str = "full"
    rounds: tuple = FULL
    nonlinear: tuple = FULL
    strings: tuple = FULL
    timeout: float = 1.0
    eliminate_definitions: bool = False
    model_guess: bool = False
    shrink_cores: bool = True

    def scaled_rounds(self, max_rounds):
        return scale_int(max_rounds, self.rounds)

    def scaled_nonlinear(self, nonlinear_budget):
        return scale_int(nonlinear_budget, self.nonlinear)

    def scaled_strings(self, string_config):
        """A copy of ``string_config`` with ``max_assignments`` scaled."""
        if self.strings == FULL:
            return string_config
        from dataclasses import replace

        return replace(
            string_config,
            max_assignments=scale_int(string_config.max_assignments, self.strings),
        )

    def scaled_timeout(self, seconds):
        return seconds * self.timeout if seconds > 0 else seconds
