"""Cylindrical-pipe benchmark grid comparing both solvers.

Runs the 18-cell grid {alpha in 2, 1.75, 1.5} x {tau0 in 0.1, 0.2} x three
disk refinements, then one arrested-flow cell at tau0 = 0.6 on the
coarsest mesh, every cell through ``run_cell``.  Each row holds both
solvers' ``SolveReport``s and their errors against the closed-form
profile; the ALG2/TRS speedup is computed from the reports.  Where that
profile is zero (arrested flow) the error columns hold max |y|, and the
row fails unless both solvers keep it at most ``ARRESTED_VELOCITY_BOUND``.
Every run has the unit constant force density the profile assumes.  Wall
times are reported for orientation only; they depend on the host and
are never part of pass/fail decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augmented_lagrangian import solve_alg2
from .fem import assemble
from .mesh import generate_disk_mesh
from .objective import FluidParams
from .pipe import PipeSolution, relative_error
from .report import SolveReport
from .trust_region import solve_trs

# Ring counts giving 469 / 1141 / 2107 nodes, comparable to the
# 559 / 1129 / 2169-node meshes the benchmark grid targets.
DEFAULT_REFINEMENTS = (12, 19, 26)
DEFAULT_ALPHAS = (2.0, 1.75, 1.5)
DEFAULT_TAU0S = (0.1, 0.2)

PLUG_STOP_TAU0 = 0.6
# Largest max |y| an arrested flow may keep.
ARRESTED_VELOCITY_BOUND = 1e-6


def speedup_of(trs: SolveReport, alg2: SolveReport) -> float:
    """ALG2/TRS wall-time ratio; NaN when the TRS time is zero."""
    return alg2.wall_time / trs.wall_time if trs.wall_time > 0 else math.nan


@dataclass
class ExperimentRow:
    alpha: float
    tau0: float
    n_nodes: int
    trs: SolveReport = field(default_factory=SolveReport)
    alg2: SolveReport = field(default_factory=SolveReport)
    error_trs: float = math.nan
    error_alg2: float = math.nan
    status: str = "ok"

    @property
    def kind(self) -> str:
        """``plug_stop`` for an arrested cell, whose errors are max |y|."""
        sol = PipeSolution(FluidParams(alpha=self.alpha, kappa=1.0, tau0=self.tau0))
        return "plug_stop" if sol.arrested else "cylinder"

    @property
    def speedup(self) -> float:
        return speedup_of(self.trs, self.alg2) if self.status == "ok" else math.nan


@dataclass
class ExperimentTable:
    rows: list[ExperimentRow] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(r.status == "ok" for r in self.rows)

    def to_csv(self) -> str:
        lines = ["kind,alpha,tau0,n_nodes,error_trs,error_alg2,"
                 "iterations_trs,iterations_alg2,time_trs,time_alg2,speedup,status"]
        for r in self.rows:
            lines.append(
                f"{r.kind},{r.alpha!r},{r.tau0!r},{r.n_nodes},{r.error_trs!r},"
                f"{r.error_alg2!r},{r.trs.iterations},{r.alg2.iterations},"
                f"{r.trs.wall_time!r},{r.alg2.wall_time!r},{r.speedup!r},{r.status}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (f"{'alpha':>6} {'tau0':>5} {'nodes':>6} "
                  f"{'err TRS':>10} {'err ALG2':>10} {'it TRS':>7} {'it ALG2':>8} "
                  f"{'t TRS':>8} {'t ALG2':>8} {'speedup':>8}  status")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            note = "  (arrested flow: errors are max |y|)" if r.kind == "plug_stop" else ""
            lines.append(
                f"{r.alpha:>6.3g} {r.tau0:>5.3g} {r.n_nodes:>6d} "
                f"{r.error_trs:>10.3e} {r.error_alg2:>10.3e} "
                f"{r.trs.iterations:>7d} {r.alg2.iterations:>8d} "
                f"{r.trs.wall_time:>8.2f} {r.alg2.wall_time:>8.2f} {r.speedup:>8.2g}  "
                f"{r.status}{note}"
            )
        return "\n".join(lines) + "\n"


def _error(y, tri, sol: PipeSolution) -> float:
    """Relative error against the profile, or max |y| where the profile is zero."""
    return float(np.abs(y).max(initial=0.0)) if sol.arrested else relative_error(y, tri, sol)


def run_cell(alpha, tau0, ops, trs_cfg=None, alg2_cfg=None) -> ExperimentRow:
    """Run both solvers on one parameter combination."""
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
    sol = PipeSolution(params)
    _, y_trs, rep_trs = solve_trs(params, ops, cfg=trs_cfg)
    y_alg2, _, _, rep_alg2 = solve_alg2(params, ops, cfg=alg2_cfg)
    row = ExperimentRow(alpha=alpha, tau0=tau0, n_nodes=ops.tri.n_nodes,
                        trs=rep_trs, alg2=rep_alg2)
    if rep_trs.converged:
        row.error_trs = _error(y_trs, ops.tri, sol)
    if rep_alg2.converged:
        row.error_alg2 = _error(y_alg2, ops.tri, sol)
    moving = sol.arrested and max(row.error_trs, row.error_alg2) > ARRESTED_VELOCITY_BOUND
    if not (rep_trs.converged and rep_alg2.converged) or moving:
        row.status = "FAILED"
    return row


def reproduce_tables(refinements=DEFAULT_REFINEMENTS, progress=None) -> ExperimentTable:
    """Run the full benchmark grid plus the arrested-flow cell at default settings."""
    levels = [assemble(generate_disk_mesh(n), f=1.0) for n in refinements]
    cells = [(alpha, tau0, ops) for ops in levels
             for alpha in DEFAULT_ALPHAS for tau0 in DEFAULT_TAU0S]
    cells.append((2.0, PLUG_STOP_TAU0, levels[0]))
    table = ExperimentTable()
    for alpha, tau0, ops in cells:
        row = run_cell(alpha, tau0, ops)
        table.rows.append(row)
        if progress is not None:
            progress(row)
    return table
