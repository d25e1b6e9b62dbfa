"""Per-solve iteration record and iteration-cap check shared by both solvers."""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

# version of the layout of ``SolveReport.to_dict()``, raised when a field
# is renamed, removed or changes meaning
SCHEMA_VERSION = 1


def check_max_outer(max_outer) -> None:
    """Reject an outer-iteration cap that is not an integer of at least 1."""
    if not (isinstance(max_outer, numbers.Integral) and max_outer >= 1):
        raise ValueError(f"max_outer must be at least 1 and an integer, got {max_outer!r}")


@dataclass
class SolveReport:
    """Histories and counters of one solver run.

    ``iterations`` counts outer-loop passes, including the pass that
    triggers the stopping test.  ``cg_iterations`` holds one
    ``(count, exit_reason)`` pair per pass that invoked the inner CG
    solver; the augmented-Lagrangian solver leaves it empty.
    ``objective_history`` holds one value per pass for the trust-region
    solver; the augmented-Lagrangian solver records only the value at the
    returned iterate.  ``status`` is ``converged``, ``max_iterations``,
    ``non_finite`` when a residual became NaN or infinite, or
    ``stalled`` (trust-region solver only) when a rejected step's model
    decrease was below the rounding of the objective, so that no further
    step could be judged.
    """

    iterations: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    kkt_history: list[float] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)
    radius_history: list[float] = field(default_factory=list)
    feasibility_history: list[float] = field(default_factory=list)
    cg_iterations: list[tuple[int, str]] = field(default_factory=list)
    status: str = "max_iterations"
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["cg_iterations"] = [[count, reason] for count, reason in self.cg_iterations]
        return {"schema_version": SCHEMA_VERSION, **data}
