"""Per-solve iteration record and the outer loop that fills it, the two rules
every setting is checked by, and the stopping tolerance both solvers default to."""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

# version of the layout of ``SolveReport.to_dict()``, raised when a field
# is renamed, removed or changes meaning
SCHEMA_VERSION = 2

# The stop of a solver given no config: a stationarity residual of
# STRAIN_RATE_TOL in strain-rate units (see abstol_for), increments of RELTOL.
STRAIN_RATE_TOL = 1e-4
RELTOL = 1e-6


def check_count(**settings) -> None:
    """Reject a count setting (iteration cap, mesh refinement) that is not an integer >= 1."""
    for name, value in settings.items():
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be at least 1 and an integer, got {value!r}")


def check_positive(**settings) -> None:
    """Reject a real setting (tolerance, parameter) that is not positive and finite."""
    for name, value in settings.items():
        if not (isinstance(value, numbers.Real) and 0.0 < value < float("inf")):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def abstol_for(tri, strain_rate_tol: float = STRAIN_RATE_TOL) -> float:
    """Solver ``abstol`` on mesh ``tri`` for a residual of ``strain_rate_tol`` in strain-rate units.

    The solvers' residual is area-weighted, so a fixed ``abstol`` loosens as
    the mesh is refined; scaled by the mean triangle area, one tolerance is
    one accuracy on every mesh.  A product that under- or overflows is rejected.
    """
    area = float(np.mean(tri.areas))
    abstol = strain_rate_tol * area
    if not 0.0 < abstol < float("inf"):
        raise ValueError(f"strain-rate tolerance {strain_rate_tol!r} times the mean triangle "
                         f"area {area!r} is {abstol!r}, not a positive finite abstol")
    return abstol


@dataclass
class SolveReport:
    """Histories and counters of one solver run.

    ``run_passes`` keeps ``iterations``, ``kkt_history``,
    ``feasibility_history``, ``wall_time`` and ``status``, which the
    trust-region solver may also set to ``stalled``.  ``cg_iterations``
    holds one ``(count, exit_reason)`` pair per pass that solved a
    trust-region subproblem: the CG iterations run on that pass, 0 when
    the pass replayed the last CG path.  ``objective_history`` holds one
    value per pass for the trust-region solver and the value at the
    returned iterate for the augmented-Lagrangian solver.
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
        """``schema_version``, then the fields in declaration order, each
        list copied and each ``cg_iterations`` pair a list, as in JSON."""
        data = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, list) else value
        data["cg_iterations"] = [[count, reason] for count, reason in self.cg_iterations]
        return data


def run_passes(max_outer: int, passes, *args):
    """Run the outer loop of generator ``passes(report, *args)``; return what it returns.

    The generator takes its start, then yields ``(kkt, momentum,
    converged)`` per iterate: ``max |grad J - D^T y|``, ``max |D tau -
    f_h|`` and its own stopping test.  Sent true, it steps; sent false,
    it returns its result at the iterate the last history entries
    describe.  It may set ``report.status`` and return.  The driver alone
    times the run, records both histories, counts ``iterations`` and
    stops ``non_finite`` on a NaN or infinite residual or defect, else
    ``converged``, else ``max_iterations`` at pass ``max_outer``.
    Overflow and invalid operations are reported by status, not warnings.
    """
    report, go_on = SolveReport(), None
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        run = passes(report, *args)
        try:
            while True:
                kkt, momentum, converged = run.send(go_on)
                report.iterations += 1
                report.kkt_history.append(kkt)
                report.feasibility_history.append(momentum)
                if not (math.isfinite(kkt) and math.isfinite(momentum)):
                    report.status = "non_finite"
                elif converged:
                    report.status = "converged"
                go_on = report.status == "max_iterations" and report.iterations < max_outer
        except StopIteration as end:
            report.wall_time = time.perf_counter() - start
            return end.value
