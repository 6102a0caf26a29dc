"""The benchmark's workloads: ``yinyang campaign --deterministic --triage``
in three shapes that each put the weight on a different layer.

Each field is a ``run_campaign`` argument, as the CLI passes it for the
command line README.md gives per workload. The campaign inputs (corpora
and mutant stream) come from ``WORKLOAD_SEED``; README.md explains why
the run's ``--seed`` permutes the family order instead.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The ROADMAP baseline's campaign seed.
WORKLOAD_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    iterations: int
    mode: str = "serial"
    workers: int = 1
    journal: bool = False
    logic: str | None = None

    def campaign_key(self, seed, iterations=None):
        """Identity of the bug records this workload must produce:
        execution mode and journaling do not change them."""
        return f"{self.logic or 'all'}:{self.scale}:{iterations or self.iterations}:{seed}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fusion-serial",
            scale=0.0015,
            iterations=5,
            journal=True,
        ),
        Workload(
            name="fusion-process2",
            scale=0.0015,
            iterations=5,
            mode="process",
            workers=2,
        ),
        Workload(
            name="bv-fusion",
            scale=0.05,
            iterations=150,
            logic="QF_BV",
        ),
    )
}
